package experiments

import (
	"strings"
	"testing"
)

// TestTable2Shape asserts the reproduction targets of Table 2: the range
// maxima sit near the paper's, and the error falls with every input decade.
func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Error decays monotonically per decade.
	for i := 1; i < len(rows); i++ {
		if rows[i].Max >= rows[i-1].Max {
			t.Fatalf("max error did not decay: %v then %v", rows[i-1], rows[i])
		}
	}
	// Published maxima hold within a small factor (the paper's operand
	// sampling is unknown but exhaustive evaluation cannot be far off).
	paperMax := []float64{0.20, 0.038, 0.0044, 0.0005}
	for i, r := range rows {
		if r.Max < paperMax[i]/2 || r.Max > paperMax[i]*4 {
			t.Errorf("range %s: max %.4f vs paper %.4f beyond 4x", r.Label, r.Max, paperMax[i])
		}
	}
	// The 1–10 row's worst case is sqrt(3)→1: |1−1.732|/3.
	if rows[0].Max < 0.20 || rows[0].Max > 0.25 {
		t.Fatalf("1-10 max = %.4f, want ≈0.244", rows[0].Max)
	}
}

func TestTable2RoundingAblation(t *testing.T) {
	base := Table2()
	round := Table2Rounding()
	// The honest ablation finding: under Table 2's input-relative metric,
	// mantissa rounding does not systematically improve the truncating
	// variant — it trades which inputs are worst (rounding sqrt(2) up to 2
	// overshoots as badly as truncating sqrt(3) to 1 undershoots). The
	// assertion pins that neither variant is more than 2x off the other
	// anywhere, i.e. the design choice is accuracy-neutral and the cheaper
	// truncating form is the right default.
	for i := range base {
		if round[i].Max > base[i].Max*2 || base[i].Max > round[i].Max*2 {
			t.Errorf("range %s: max diverges: round %.4f vs trunc %.4f",
				base[i].Label, round[i].Max, base[i].Max)
		}
		if round[i].P50 > base[i].P50*2+1e-9 || base[i].P50 > round[i].P50*2+1e-9 {
			t.Errorf("range %s: p50 diverges: round %.5f vs trunc %.5f",
				base[i].Label, round[i].P50, base[i].P50)
		}
	}
}

func TestTable2Workload(t *testing.T) {
	rows := Table2Workload(50000, 3)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// The workload's variances populate at least the larger ranges, and
	// errors stay within each range's exhaustive maximum.
	exhaustive := Table2()
	populated := 0
	for i, r := range rows {
		if r.Max > 0 {
			populated++
			if r.Max > exhaustive[i].Max*1.01 {
				t.Errorf("range %s: workload max %.4f exceeds exhaustive %.4f",
					r.Label, r.Max, exhaustive[i].Max)
			}
		}
	}
	if populated < 2 {
		t.Fatalf("only %d ranges populated by the workload", populated)
	}
}

// TestTable3Shape asserts Table 3's reproduction targets: large errors only
// in the sparse phase, collapse after N/2 samples, and the after-phase 90th
// percentile at or under the paper's values.
func TestTable3Shape(t *testing.T) {
	rows := Table3(3, 17)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	paperAfterP90 := []float64{0.01, 0.001, 0.0001}
	for i, r := range rows {
		if r.BeforeP90 < r.AfterP90 {
			t.Errorf("N=%d: error did not shrink after N/2 (%.4f vs %.4f)",
				r.N, r.BeforeP90, r.AfterP90)
		}
		if r.AfterP50 > 0.001 {
			t.Errorf("N=%d: after-phase median error %.4f, want ≈0", r.N, r.AfterP50)
		}
		if r.AfterP90 > paperAfterP90[i]*3 {
			t.Errorf("N=%d: after-phase p90 %.5f vs paper %.5f", r.N, r.AfterP90, paperAfterP90[i])
		}
		if r.BeforeP90 < 0.05 {
			t.Errorf("N=%d: sparse-phase p90 %.4f suspiciously low — is the marker teleporting?",
				r.N, r.BeforeP90)
		}
	}
}

func TestResourcesAgainstPaper(t *testing.T) {
	rows := Resources()
	byName := map[string]ResourceRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	cs, ok := byName["case-study"]
	if !ok {
		t.Fatal("case-study row missing")
	}
	// The paper's application occupies 3.1KB; the same-shape emission must
	// land in the same ballpark.
	kb := float64(cs.Report.TotalBytes) / 1024
	if kb < 1.5 || kb > 6 {
		t.Fatalf("case-study footprint %.1fKB, want ≈3KB", kb)
	}
	if cs.Report.MatchRuleDependencies > 1 {
		t.Fatalf("rule dependencies %d, paper reports at most 1", cs.Report.MatchRuleDependencies)
	}
	// Chains must fit a generous hardware pipeline model and the
	// override-only chain must be shorter than the full one.
	oo := byName["override-only"]
	if oo.Report.LongestDepChain >= cs.Report.LongestDepChain {
		t.Fatalf("override-only chain %d not shorter than full %d",
			oo.Report.LongestDepChain, cs.Report.LongestDepChain)
	}
	if cs.Report.LongestDepChain > 64 {
		t.Fatalf("chain %d implausibly deep", cs.Report.LongestDepChain)
	}
}

// TestCaseStudyHeadline is E4's assertion: detection in the first interval
// after the spike starts, with correct drill-down, in a fresh seeded run.
func TestCaseStudyHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("case study run takes a few seconds")
	}
	res, err := CaseStudy(CaseStudyParams{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("spike not detected")
	}
	if res.DetectionIntervalLag > 1 {
		t.Fatalf("detected %d intervals after onset, want the first", res.DetectionIntervalLag)
	}
	if !res.SubnetCorrect {
		t.Fatal("wrong subnet identified")
	}
	if !res.HostCorrect {
		t.Fatal("wrong destination identified")
	}
	ppS := float64(res.PinpointNs) / 1e9
	if ppS < 0.5 || ppS > 5 {
		t.Fatalf("pinpointing took %.2fs, paper band is 2-3s (ours 1-3s)", ppS)
	}
	if len(res.Log) != 3 {
		t.Fatalf("expected 3 controller transitions, got %v", res.Log)
	}
}

// TestCaseStudySmallSweepPoint exercises a fast sweep configuration: short
// intervals, small window.
func TestCaseStudySmallSweepPoint(t *testing.T) {
	res, err := CaseStudy(CaseStudyParams{
		IntervalShift: 20, WindowSize: 20, PacketsPerInterval: 100,
		CtrlDelay: 50e6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.HostCorrect {
		t.Fatalf("fast configuration failed: %+v", res)
	}
}

// TestArchComparisonShape asserts the E6 reproduction target: in-switch
// detection delay beats every sketch-only period, sketch-only delay grows
// with the period, and overhead shrinks with it.
func TestArchComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("architecture sweep takes a few seconds")
	}
	rows, err := ArchComparison(ArchParams{Runs: 1, Seed: 2, WindowSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	push := rows[len(rows)-1]
	if push.Detected == 0 {
		t.Fatal("in-switch push never detected")
	}
	for _, r := range rows[:len(rows)-1] {
		if r.Detected == 0 {
			continue
		}
		if push.DetectDelayMs >= r.DetectDelayMs {
			t.Errorf("push delay %.2fms not better than pull@%vms %.2fms",
				push.DetectDelayMs, r.PullPeriodMs, r.DetectDelayMs)
		}
	}
	// Pull delay grows and overhead shrinks with the period.
	for i := 1; i < len(rows)-1; i++ {
		if rows[i].Detected == 0 || rows[i-1].Detected == 0 {
			continue
		}
		if rows[i].DetectDelayMs < rows[i-1].DetectDelayMs {
			t.Errorf("pull delay not increasing: %.2f then %.2f",
				rows[i-1].DetectDelayMs, rows[i].DetectDelayMs)
		}
		if rows[i].OverheadKBps >= rows[i-1].OverheadKBps {
			t.Errorf("pull overhead not decreasing: %.1f then %.1f",
				rows[i-1].OverheadKBps, rows[i].OverheadKBps)
		}
	}
}

func TestFormatters(t *testing.T) {
	if !strings.Contains(FormatTable2(Table2()), "input number y") {
		t.Fatal("FormatTable2 header missing")
	}
	if !strings.Contains(FormatTable3(Table3(1, 1)), "N      example use") {
		t.Fatal("FormatTable3 header missing")
	}
	if !strings.Contains(FormatResources(Resources()), "3.1KB") {
		t.Fatal("FormatResources paper note missing")
	}
	rows := []CaseStudySweepRow{{IntervalShift: 23, WindowSize: 100, Runs: 1}}
	if !strings.Contains(FormatCaseStudySweep(rows), "interval") {
		t.Fatal("FormatCaseStudySweep header missing")
	}
	arch := []ArchRow{{Arch: "x", PullPeriodMs: 1, DetectDelayMs: -1, Runs: 1}}
	if !strings.Contains(FormatArch(arch), "not detected") {
		t.Fatal("FormatArch missing not-detected case")
	}
}

// TestCaseStudySweepConfigs exercises the sweep plumbing on one small
// configuration.
func TestCaseStudySweepConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run takes a few seconds")
	}
	rows, err := CaseStudySweepConfigs([]SweepConfig{{Shift: 20, Window: 20}}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Runs != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Detected != 2 || rows[0].HostCorrect != 2 {
		t.Fatalf("sweep point failed: %+v", rows[0])
	}
	if rows[0].MeanPinpointS <= 0 {
		t.Fatal("pinpoint time not aggregated")
	}
}

// TestStrictAccuracyAblation pins the strict-emission trade-off: the
// one-term shift approximation costs large relative error on the variance
// (up to ~4x as two multiplies each truncate toward a power of two) yet
// never flips the spike detection outcome.
func TestStrictAccuracyAblation(t *testing.T) {
	rows := StrictAccuracy(5000, 3)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Fatalf("%s: no samples", r.Metric)
		}
		if r.MeanRelErr == 0 {
			t.Fatalf("%s: suspiciously exact — is strict mode actually approximating?", r.Metric)
		}
		// One-term MulShift halves at worst per factor: variance error < 4x,
		// sd error < 2x.
		if r.MaxRelErr > 1.0 {
			t.Fatalf("%s: max rel err %.2f beyond the approximation bound", r.Metric, r.MaxRelErr)
		}
	}
	e, s := StrictDetectionAgreement(3, 3)
	if e != 3 || s != 3 {
		t.Fatalf("detection agreement: exact %d/3, strict %d/3", e, s)
	}
}

// TestQuantileComparison pins the comparative findings: the Stat4 marker is
// at least as accurate as the P² software baseline on unimodal and zipfian
// workloads, and both degrade on bimodal input (the gap the mode-split
// extension closes).
func TestQuantileComparison(t *testing.T) {
	rows := QuantileComparison(500, 10000, 7)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]QuantileRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Tracker] = r
	}
	for _, w := range []string{"uniform", "normal", "zipf-1.5"} {
		m := byKey[w+"/stat4-marker"]
		p := byKey[w+"/p2-software"]
		if m.MeanErrPct > p.MeanErrPct+0.5 {
			t.Errorf("%s: marker mean err %.2f%% notably worse than P2 %.2f%%",
				w, m.MeanErrPct, p.MeanErrPct)
		}
		if m.MeanErrPct > 1 {
			t.Errorf("%s: marker mean err %.2f%% too high", w, m.MeanErrPct)
		}
	}
	bm := byKey["bimodal/stat4-marker"]
	bp := byKey["bimodal/p2-software"]
	if bm.MeanErrPct < 0.5 && bp.MeanErrPct < 0.5 {
		t.Error("bimodal workload unexpectedly easy; the mode-split motivation is gone")
	}
	if byKey["uniform/p2-software"].Cells != 15 {
		t.Error("P2 state cells wrong")
	}
}

// TestShardScale runs the shard sweep at a small duration: every row must be
// byte-equivalent to serial, shard 1 is the serial identity (speedup 1), and
// packet totals must agree across rows (same workload, different sharding).
func TestShardScale(t *testing.T) {
	rows, err := ShardScale(ShardScaleParams{DurationNs: 5e5, ShardCounts: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Equivalent {
			t.Fatalf("shards=%d: merged snapshot diverged from serial", r.Shards)
		}
		if r.Packets == 0 {
			t.Fatalf("shards=%d: no packets", r.Shards)
		}
		if r.Packets != rows[0].Packets {
			t.Fatalf("shards=%d saw %d packets, shards=1 saw %d", r.Shards, r.Packets, rows[0].Packets)
		}
	}
	if rows[0].ModeledSpeedup != 1 {
		t.Fatalf("1-shard speedup = %v", rows[0].ModeledSpeedup)
	}
	if rows[2].ModeledSpeedup <= 1 {
		t.Fatalf("4-shard speedup = %v, want > 1", rows[2].ModeledSpeedup)
	}
}
