package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stat4/internal/controller"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// caseStudyTrace runs the Section 4 detection and drill-down the way
// experiments.CaseStudy wires it — a σ-band rate window over 10.0.0.0/8, the
// drill-down controller retuning the binding tables through the simulator,
// load-balanced traffic plus a spike at a seeded onset — on the production
// engine or the reference, and returns the controller's log, its result,
// its final phase and the simulator's final clock and step count.
func caseStudyTrace(t *testing.T, ref bool, shift uint, window int, perInterval float64, ctrlDelay uint64, seed int64) []string {
	t.Helper()
	intervalNs := uint64(1) << shift
	baseRate := perInterval * 1e9 / float64(intervalNs)
	rng := rand.New(rand.NewSource(seed))
	dests := traffic.CaseStudyDests()
	target := dests[rng.Intn(len(dests))]
	fill := uint64(window+5) * intervalNs
	onset := fill + uint64(rng.Int63n(int64(10*intervalNs)))
	duration := onset + 8*ctrlDelay + 50*intervalNs

	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 2, Size: 256, Stages: 2}))
	if err != nil {
		t.Fatal(err)
	}
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.DstIn(slash8),
		IntervalShift: shift, Capacity: window, K: 2}); err != nil {
		t.Fatal(err)
	}
	var dd *controller.DrillDown
	sim, node := attach(ref, rt.Sharded(), ctrlDelay, func(now uint64, d p4.Digest) { dd.HandleDigest(now, d) })
	dd = controller.NewDrillDown(controller.Config{
		RT:            rt,
		Sched:         sim,
		CtrlDelay:     ctrlDelay,
		Monitored:     slash8,
		WindowSlot:    0,
		DrillStage:    1,
		DrillSlot:     1,
		SubnetBits:    24,
		SubnetDomain:  256,
		K:             2,
		Warmup:        20 * intervalNs,
		MonitorWarmup: fill,
	})
	load := &traffic.LoadBalanced{Dests: dests, Rate: baseRate, End: duration, Seed: seed + 1, Jitter: 0.5}
	spike := &traffic.Spike{Dest: target, Rate: baseRate * 4, Start: onset, End: duration, Seed: seed + 2, Jitter: 0.5}
	node.InjectStream(traffic.Merge(load, spike), 1)
	sim.Run()

	trace := append([]string(nil), dd.Log...)
	return append(trace,
		fmt.Sprintf("result %+v", dd.Result()),
		fmt.Sprintf("phase %v, target %v", dd.Phase(), target),
		fmt.Sprintf("end@%d steps=%d", sim.Now(), sim.Steps()))
}

// TestCaseStudyDrillDownMatchesReference runs the case study's detection and
// drill-down on the wheel and on the reference engine and requires identical
// drill-down logs, detection and identification timestamps, and final
// clocks. The controller's rebinds land between packets of the batched
// stream pump, so a pump that ran past a pending control event would show
// here. The second run's virtual duration crosses the wheel's 2^32 ns
// horizon, so the overflow path is exercised end to end.
func TestCaseStudyDrillDownMatchesReference(t *testing.T) {
	type params struct {
		shift       uint
		window      int
		perInterval float64
		ctrlDelay   uint64
		seed        int64
	}
	runs := []params{
		{shift: 20, window: 20, perInterval: 100, ctrlDelay: 50e6, seed: 5},
		{shift: 20, window: 20, perInterval: 60, ctrlDelay: 600e6, seed: 11},
	}
	if testing.Short() {
		runs = runs[:1] // the long run takes over a minute under -race
	}
	for i, p := range runs {
		wheel := caseStudyTrace(t, false, p.shift, p.window, p.perInterval, p.ctrlDelay, p.seed)
		ref := caseStudyTrace(t, true, p.shift, p.window, p.perInterval, p.ctrlDelay, p.seed)
		if !reflect.DeepEqual(wheel, ref) {
			t.Fatalf("run %d: drill-down differs across engines\nwheel:     %q\nreference: %q", i, wheel, ref)
		}
		if !strings.HasPrefix(wheel[len(wheel)-2], "phase done") {
			t.Fatalf("run %d: drill-down never pinpointed the target: %q", i, wheel)
		}
	}
}

// entropyDigestTrace replays a stream through the entropy detector of the
// detection matrix (destination entropy over 10.0.0.0/24, collapse below 4
// bits, checked every 1024 observations) on n shards, on the production
// engine or the reference, and returns every digest with its controller
// arrival time.
func entropyDigestTrace(t *testing.T, ref bool, shards int, st traffic.Stream) []string {
	t.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Entropy: true, DigestBuf: 8192})
	bd := stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.AllIPv4(),
		Base: uint64(packet.ParseIP4(10, 0, 0, 0)), Size: 256, H0: 4 << 16, CheckEvery: 1024}
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Bind(bd); err != nil {
		t.Fatal(err)
	}
	sw := sr.Sharded()
	var trace []string
	sim, node := attach(ref, sw, 1_000_000, func(now uint64, d p4.Digest) {
		trace = append(trace, fmt.Sprintf("digest@%d id=%d vals=%v", now, d.ID, d.Values))
	})
	node.InjectStream(st, 1)
	sim.Run()
	return append(trace, fmt.Sprintf("end@%d steps=%d", sim.Now(), sim.Steps()))
}

// TestEntropyDigestsMatchReference replays the flash-crowd scenario of the
// detection matrix, its attack trace and its benign twin, through the
// entropy detector at 1 and 4 shards on the wheel and on the reference
// engine, and requires identical digest traces with identical arrival times.
func TestEntropyDigestsMatchReference(t *testing.T) {
	sc, ok := traffic.FindScenario(traffic.Registry(0.25), "flash-crowd")
	if !ok {
		t.Fatal("flash-crowd missing from registry")
	}
	for _, shards := range []int{1, 4} {
		digests := 0
		for _, build := range []func(int64) traffic.Stream{sc.Build, sc.Benign} {
			wheel := entropyDigestTrace(t, false, shards, build(1))
			ref := entropyDigestTrace(t, true, shards, build(1))
			if !reflect.DeepEqual(wheel, ref) {
				t.Fatalf("shards=%d: digest traces differ\nwheel:     %q\nreference: %q", shards, wheel, ref)
			}
			digests += len(wheel) - 1
		}
		if digests == 0 {
			t.Fatalf("shards=%d: no entropy digest fired — the comparison is vacuous", shards)
		}
	}
}
