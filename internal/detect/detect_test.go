package detect

import (
	"encoding/json"
	"testing"

	"stat4/internal/traffic"
)

// testGrid is the CI quality matrix at smoke scale. -short drops the 4-shard
// column, leaving the full scenario × config product at one shard.
func testGrid(t *testing.T) Grid {
	t.Helper()
	g := DefaultGrid(0.25)
	if testing.Short() {
		g.Shards = []int{1}
	}
	return g
}

// TestMatrixContract runs the quality matrix once and checks every gate the
// DETECT_<n>.json artifact ships with:
//
//   - dominance: each pathological config scores strictly below its healthy
//     twin on every scenario its track should catch;
//   - benign restraint: healthy configs stay quiet on the benign twin of
//     scenarios they are meant to detect;
//   - coverage: every (scenario, config) pairing produced a scored cell.
func TestMatrixContract(t *testing.T) {
	g := testGrid(t)
	results, err := RunGrid(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(g.Cells()); len(results) != want {
		t.Fatalf("scored %d cells, grid has %d", len(results), want)
	}

	for _, v := range DominanceViolations(results) {
		t.Errorf("dominance: %s", v)
	}

	for _, r := range results {
		if r.Pathological || !r.Detectable {
			continue
		}
		// Temporal tracks may flag at most one benign window of the
		// post-warmup trace (the σ-band can clip a burst right at the
		// warmup edge at smoke scale); the heavy-hitter benign measure is a
		// misidentification rate where keys at the 2%-share boundary
		// fall either side of the sampled estimate.
		limit := 0.05
		if r.Track == string(TrackHH) {
			limit = 0.25
		}
		if r.BenignFlagged > limit {
			t.Errorf("%s: healthy config flagged %.3f of the benign twin (limit %.2f)",
				r.Key(), r.BenignFlagged, limit)
		}
	}

	seen := make(map[string]bool)
	for _, r := range results {
		seen[r.Scenario+"/"+r.Config] = true
	}
	for _, sc := range g.Scenarios {
		for _, cfg := range g.Configs {
			if !seen[sc.Name+"/"+cfg.Name] {
				t.Errorf("no cell scored for %s/%s", sc.Name, cfg.Name)
			}
		}
	}
}

// TestRunDeterministic pins the seed contract: the same cell scored twice
// yields byte-identical results, which is what lets CI gate on exact quality
// numbers instead of tolerance bands.
func TestRunDeterministic(t *testing.T) {
	reg := traffic.Registry(0.25)
	sc, ok := traffic.FindScenario(reg, "pulse-ddos")
	if !ok {
		t.Fatal("pulse-ddos missing from registry")
	}
	cfg, ok := FindConfig(Configs(), "entropy")
	if !ok {
		t.Fatal("entropy config missing")
	}
	cell := Cell{Scenario: sc, Config: cfg, Shards: 2, Seed: 1}
	a, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same cell scored differently across runs:\n%s\n%s", ja, jb)
	}
	if a.Packets == 0 || a.Alerts == 0 {
		t.Fatalf("determinism check ran an empty cell: %+v", a)
	}
}

// TestSeedChangesOutcome guards against the seed being silently ignored: a
// different seed must at minimum change the packet stream's tally.
func TestSeedChangesOutcome(t *testing.T) {
	sc, ok := traffic.FindScenario(traffic.Registry(0.25), "pulse-ddos")
	if !ok {
		t.Fatal("pulse-ddos missing from registry")
	}
	t1, n1 := TallySrcs(sc.Build(1))
	t2, n2 := TallySrcs(sc.Build(2))
	if n1 == 0 || n2 == 0 {
		t.Fatal("empty streams")
	}
	same := len(t1) == len(t2)
	if same {
		for k, v := range t1 {
			if t2[k] != v {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical tallies: seed is ignored")
	}
}
