package main

import (
	"bytes"
	"testing"
)

// TestRun asserts the example's claim: run returns an error unless
// every acknowledged record survives the failovers exactly once and the
// front door's merged rollups equal the single-store reference.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}
