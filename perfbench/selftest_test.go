package main

import (
	"errors"
	"os"
	"testing"
)

// TestChecksFailTheRun proves the output checks have teeth: a clean short
// run passes, and the same run with one corrupted served token or one
// non-finite tuning loss fails with errIncorrect (the command exits 1).
// Run from this directory with `go test .`; it takes under a minute.
func TestChecksFailTheRun(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark runs from the repository root, where BENCHMARK.json is.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, tc := range []struct {
		workload, inject string
		want             error
	}{
		{"serve_f32", "", nil},
		{"serve_f32", "corrupt_token", errIncorrect},
		{"adapt", "", nil},
		{"adapt", "nan_loss", errIncorrect},
	} {
		args := []string{"--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", "0"}
		if tc.inject != "" {
			args = append(args, "--inject", tc.inject)
		}
		if err := run(args); !errors.Is(err, tc.want) {
			t.Errorf("%s with inject %q: got %v, want %v", tc.workload, tc.inject, err, tc.want)
		}
	}
}
