package lint_test

import (
	"encoding/json"
	"testing"

	"stat4/internal/lint"
)

// Each fixture package under testdata/src declares its expected diagnostics
// in // want comments; the full analyzer suite runs over every fixture so
// cross-analyzer interactions (like the nomaprange/boundedloop precedence)
// are covered too.

func TestNoDivide(t *testing.T) {
	runFixture(t, "testdata/src", "nodivide", lint.Analyzers())
}

func TestNoFloat(t *testing.T) {
	runFixture(t, "testdata/src", "nofloat", lint.Analyzers())
}

func TestBoundedLoop(t *testing.T) {
	runFixture(t, "testdata/src", "boundedloop", lint.Analyzers())
}

func TestNoMapRange(t *testing.T) {
	runFixture(t, "testdata/src", "nomaprange", lint.Analyzers())
}

func TestShiftConst(t *testing.T) {
	runFixture(t, "testdata/src", "shiftconst", lint.Analyzers())
}

func TestAllocFree(t *testing.T) {
	runFixture(t, "testdata/src", "allocfree", lint.Analyzers())
}

func TestAtomicSafe(t *testing.T) {
	runFixture(t, "testdata/src", "atomicsafe", lint.Analyzers())
}

func TestDirectiveValidation(t *testing.T) {
	runFixture(t, "testdata/src", "directive", lint.Analyzers())
}

func TestClosureCrossesPackages(t *testing.T) {
	runFixture(t, "testdata/src", "closure", lint.Analyzers())
}

// TestDiagnosticOrder pins that diagnostics come out sorted by position, so
// tool output and CI logs are stable run to run.
func TestDiagnosticOrder(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata/src", "boundedloop", lint.Analyzers())
	if len(diags) < 2 {
		t.Fatalf("expected several diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s after %s", diags[i], diags[i-1])
		}
	}
}

// TestJSONRoundTrip pins the -json wire schema: a diagnostic survives
// marshal → unmarshal → Diagnostic with its position, analyzer and message
// intact (only the byte offset, which is not part of the schema, is lost).
func TestJSONRoundTrip(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata/src", "allocfree", lint.Analyzers())
	if len(diags) == 0 {
		t.Fatal("allocfree fixture produced no diagnostics to round-trip")
	}
	data, err := json.Marshal(lint.ToJSON(diags))
	if err != nil {
		t.Fatal(err)
	}
	var wire []lint.JSONDiagnostic
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(diags) {
		t.Fatalf("round trip changed count: %d -> %d", len(diags), len(wire))
	}
	for i, j := range wire {
		got, want := j.Diagnostic(), diags[i]
		if got.String() != want.String() || got.Analyzer != want.Analyzer {
			t.Errorf("diagnostic %d changed:\n got %s\nwant %s", i, got, want)
		}
	}
	if out, err := json.Marshal(lint.ToJSON(nil)); err != nil || string(out) != "[]" {
		t.Errorf("clean run must emit [], got %s (%v)", out, err)
	}
}

// TestAnalyzerNamesStable pins the exemption namespace: renaming an analyzer
// silently invalidates every //stat4:exempt:<name> comment in the tree, so a
// rename must be deliberate.
func TestAnalyzerNamesStable(t *testing.T) {
	want := []string{"nodivide", "nofloat", "boundedloop", "nomaprange", "shiftconst", "allocfree", "atomicsafe", "directive", "reachable"}
	names := lint.AnalyzerNames()
	if len(names) != len(want) {
		t.Fatalf("analyzer set changed: got %v", names)
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("analyzer %q missing from suite", n)
		}
	}
}
