package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunAllAblationsGolden pins every table and figure the paper's
// evaluation prints, plus the ablations, byte for byte: the run is
// simulated time under fixed seeds, so any change to it is a change to
// a paper artifact.
func TestRunAllAblationsGolden(t *testing.T) {
	const golden = "testdata/all_ablations.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if code := run(&got, []string{"-ablations"}); code != 0 {
		t.Fatalf("run -ablations exited %d", code)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
			break
		}
	}
	t.Errorf("harmonia-bench -ablations output (%d lines) differs from %s (%d lines); if the change is intended, regenerate it with\n"+
		"\tgo run ./cmd/harmonia-bench -ablations > cmd/harmonia-bench/%s", len(gotLines), golden, len(wantLines), golden)
}
