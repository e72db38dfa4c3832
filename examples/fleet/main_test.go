package main

import (
	"bytes"
	"testing"
)

// TestRun asserts the example's claim: run returns an error unless
// every fabric's anomaly type appears in the final clustered query,
// with fewer incidents than complaints. The listener port and the
// fabrics' arrival order vary between runs, so the output itself is
// not compared.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}
