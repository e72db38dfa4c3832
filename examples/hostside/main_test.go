package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunMatchesGolden pins the whole printout against testdata. The
// table lines carry trailing padding, which an // Output: comment
// cannot hold. After an intended change, regenerate from the module
// root with
//
//	go run ./examples/hostside > examples/hostside/testdata/output.txt
func TestRunMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.txt:\n%s", got.String())
	}
}
