package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the command end to end through run() with a
// deliberately small configuration (short intervals, shallow window, low
// rate) so the full pipeline — traffic, switch, controller drill-down,
// summary printing, metrics snapshot — executes in well under a second.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	var buf strings.Builder
	err := run(&buf, options{
		runs:        1,
		shift:       20,
		window:      20,
		perInterval: 60,
		ctrlMs:      50,
		seed:        5,
		metricsOut:  out,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"run 0: spike at", "summary:", "detected="} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	snap, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "stat4_casestudy") {
		t.Fatalf("metrics snapshot missing registry prefix: %s", snap)
	}
}
