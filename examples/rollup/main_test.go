package main

import (
	"bytes"
	"testing"
)

// TestRun asserts the example's claim: run returns an error unless the
// rollup stream is at least 10x quieter than the raw incident firehose
// and drill-down from the hottest switch finds its incidents. The
// listener port and the fabrics' arrival order vary between runs, so
// the output itself is not compared.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}
