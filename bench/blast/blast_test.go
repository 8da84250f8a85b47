package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the program
// reports from: same workloads, same metrics, units, directions and bounds,
// all inside the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2 to 8 allowed)", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsRune(w.why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef, limit int) {
		t.Helper()
		if len(want) < 1 || len(want) > limit {
			t.Errorf("%d %s metrics, 1 to %d allowed", len(want), kind, limit)
		}
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the driver's alphabet", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if got[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd, 16)
	same("per-layer", m.PerLayer, perLayer, 128)
	var setup bool
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
}

// TestWorkloadsQuick runs every workload in both trace modes at test sizing
// and checks the result object: verification green, ledger balanced, exactly
// the promised metrics, every value a number, and no end-to-end metric zero.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "bulk-dst24-2s" {
			continue // one sharded workload covers the concurrency surface under -race
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var log bytes.Buffer
			c := &config{w: w, seed: 5, seconds: 0.3, quick: true, outDir: t.TempDir(), log: &log}
			run := runEndToEnd
			if trace == 1 {
				run = runLayers
			}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s missing", w.name, trace, d.Name)
				case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace %d: %s = %v %q", w.name, trace, d.Name, v.Value, v.Unit)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, v.Value)
				}
			}
			if !strings.Contains(log.String(), "loopback") {
				t.Errorf("%s trace %d: report does not say the traffic stayed on loopback", w.name, trace)
			}
			if line, err := json.Marshal(res); err != nil || !json.Valid(line) {
				t.Errorf("%s trace %d: result does not marshal: %v", w.name, trace, err)
			}
		}
	}
}

// TestCompare checks the gate on every end-to-end metric: the same report
// passes, a worsening inside the bound passes, one past it fails, and a
// better number never fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write stores a report whose metric named worse is off the baseline of
	// 100 by that share, in its bad direction.
	write := func(name, worse string, by float64) string {
		e2e := make(map[string]value)
		for _, d := range endToEnd {
			v := 100.0
			if d.Name == worse {
				if d.Better == "higher" {
					by = -by
				}
				v *= 1 + by
			}
			e2e[d.Name] = value{v, d.Unit}
		}
		rep := report{Workloads: []workloadReport{{
			Name: "bulk-dst24-1s", Correct: true, Attempted: 1, EndToEnd: e2e,
			PerLayer: map[string]value{"p4.process_packet_ns": {800, "ns"}, "p4.digest_drops": {0, "count"}},
		}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", "", 0)
	if err := compareReports(io.Discard, []string{base, base}); err != nil {
		t.Errorf("a report against itself: %v", err)
	}
	for _, d := range endToEnd {
		for _, tc := range []struct {
			name   string
			by     float64
			breach bool
		}{
			{"inside", 0.8 * d.Bound, false},
			{"past", 1.2 * d.Bound, true},
			{"better", -0.5, false},
		} {
			err := compareReports(io.Discard, []string{base, write(d.Name+"-"+tc.name, d.Name, tc.by)})
			if (err != nil) != tc.breach {
				t.Errorf("%s %s (%+.0f%%): breach=%v, err=%v", d.Name, tc.name, 100*tc.by, tc.breach, err)
			}
		}
	}
}
