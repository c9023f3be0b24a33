package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunGolden pins the quickstart report byte for byte.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	run(&out)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("report changed:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
