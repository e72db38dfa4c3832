package main

import (
	"bytes"
	"testing"
)

// TestRun asserts the example's claim: run returns an error unless the
// remote verdict matches the in-process one and the server's store
// returns at least one incident. The listener port and the incident
// list vary between runs, so the output itself is not compared.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}
