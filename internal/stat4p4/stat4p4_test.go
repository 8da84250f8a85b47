package stat4p4

import (
	"errors"
	"math/rand"
	"testing"

	"stat4/internal/core"
	"stat4/internal/p4"
	"stat4/internal/packet"
)

func mustRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func drainAnomalies(sw *p4.ShardedSwitch) []p4.Digest {
	var out []p4.Digest
	for {
		select {
		case d := <-sw.Digests():
			out = append(out, d)
		default:
			return out
		}
	}
}

func TestBuildValidates(t *testing.T) {
	lib := Build(DefaultOptions)
	if err := lib.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(lib.BindTables) != 2 {
		t.Fatalf("BindTables = %v", lib.BindTables)
	}
}

func TestStrictBuildIsMulFree(t *testing.T) {
	lib := Build(Options{Slots: 2, Size: 64, Stages: 1, Strict: true, StrictCapShift: 4})
	if lib.Prog.Target.AllowMul {
		t.Fatal("strict build kept the bmv2 target")
	}
	if err := lib.Prog.Validate(); err != nil {
		t.Fatalf("strict program invalid: %v", err)
	}
	for _, a := range lib.Prog.Actions {
		for _, op := range a.Ops {
			if op.Code == p4.OpMul {
				t.Fatalf("strict action %q contains a multiplication", a.Name)
			}
		}
	}
}

// TestEchoCrossValidation is the Figure 5 experiment as a test: for every
// echo packet, the switch's N, Xsum, Xsumsq, variance, sd and median marker
// must equal a host-side computation (internal/core) over the same stream.
// The paper reports equality for up to 10,000 packets; we assert it per
// packet for 10,000.
func TestEchoCrossValidation(t *testing.T) {
	const (
		domain  = 512
		base    = EchoBias - 255
		packets = 10000
	)
	rt := mustRuntime(t, Options{Slots: 1, Size: domain, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: base, Size: domain, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}

	host := core.NewFreqDist(domain)
	med := host.TrackMedian()
	rng := rand.New(rand.NewSource(42))
	sw := rt.Sharded()

	for i := 0; i < packets; i++ {
		v := int16(rng.Intn(511) - 255) // −255..255
		frame := packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, v).Serialize()
		out := sw.ProcessFrame(uint64(i), 3, frame)
		if len(out) != 1 || out[0].Port != 3 {
			t.Fatalf("packet %d: no echo reply", i)
		}
		if err := host.Observe(uint64(int64(v) + 255)); err != nil {
			t.Fatal(err)
		}

		rp, err := packet.Parse(out[0].Data)
		if err != nil {
			t.Fatalf("packet %d: reply unparseable: %v", i, err)
		}
		reply, err := packet.UnmarshalEchoReply(rp.Payload)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}

		m := host.Moments()
		if reply.N != m.N || reply.Xsum != m.Sum || reply.Xsumsq != m.Sumsq {
			t.Fatalf("packet %d: switch (N=%d,sum=%d,sumsq=%d) host (%d,%d,%d)",
				i, reply.N, reply.Xsum, reply.Xsumsq, m.N, m.Sum, m.Sumsq)
		}
		if reply.Var != m.Variance() {
			t.Fatalf("packet %d: switch var %d, host %d", i, reply.Var, m.Variance())
		}
		if reply.SD != m.StdDev() {
			t.Fatalf("packet %d: switch sd %d, host %d", i, reply.SD, m.StdDev())
		}
		if reply.Median != med.Value() {
			t.Fatalf("packet %d: switch median %d, host %d", i, reply.Median, med.Value())
		}
	}
}

// TestWindowCrossValidation drives the same per-interval packet counts
// through the emitted window logic and core.Window, asserting equal moments
// and identical anomaly decisions at every interval boundary.
func TestWindowCrossValidation(t *testing.T) {
	const (
		intShift  = 10 // 1024 ns intervals
		capacity  = 16
		intervals = 300
	)
	rt := mustRuntime(t, Options{Slots: 1, Size: 128, Stages: 1})
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: intShift, Capacity: capacity, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	ref := core.NewWindow(capacity)
	rng := rand.New(rand.NewSource(9))
	frame := packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 0, 1), 5, 80, 10).Serialize()

	for i := 0; i < intervals; i++ {
		count := 20 + rng.Intn(10)
		if i == 250 {
			count = 200 // spike interval
		}
		for p := 0; p < count; p++ {
			ts := uint64(i)<<intShift + uint64(p)
			if i > 0 && p == 0 {
				// Interval boundary: the reference checks then folds;
				// the switch does the same when this packet arrives.
				_, refAnom := ref.CheckThenTick(2)
				sw.ProcessFrame(ts, 1, frame)
				digests := drainAnomalies(sw)
				if refAnom != (len(digests) > 0) {
					t.Fatalf("interval %d: core anomalous=%v, switch digests=%d",
						i-1, refAnom, len(digests))
				}
				if refAnom && digests[0].Values[0] != 0 {
					t.Fatalf("digest slot = %d, want 0", digests[0].Values[0])
				}
			} else {
				sw.ProcessFrame(ts, 1, frame)
			}
			ref.Add(1)
		}
		// Mid-stream moment equality (after the boundary packet of the
		// next interval folds, so compare at a safe point: right after
		// the boundary fold the switch moments equal the reference's).
		if i > 0 {
			m := mustRead(t, rt, Moments, 0)
			cm := ref.Moments()
			if m.N != cm.N || m.Xsum != cm.Sum || m.Xsumsq != cm.Sumsq {
				t.Fatalf("interval %d: switch (N=%d,sum=%d,sumsq=%d) core (%d,%d,%d)",
					i, m.N, m.Xsum, m.Xsumsq, cm.N, cm.Sum, cm.Sumsq)
			}
			if m.Var != cm.Variance() || m.SD != cm.StdDev() {
				t.Fatalf("interval %d: switch var/sd %d/%d core %d/%d",
					i, m.Var, m.SD, cm.Variance(), cm.StdDev())
			}
		}
	}
}

// TestSpikeDetectedFirstInterval reproduces the case-study headline: a
// traffic spike is detected in the first interval after its start.
func TestSpikeDetectedFirstInterval(t *testing.T) {
	const intShift = 20 // ~1 ms intervals
	rt := mustRuntime(t, Options{Slots: 1, Size: 128, Stages: 1})
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: intShift, Capacity: 100, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	frame := packet.NewUDPFrame(1, packet.ParseIP4(10, 1, 2, 3), 5, 80, 10).Serialize()
	rng := rand.New(rand.NewSource(3))

	send := func(interval int, count int) {
		for p := 0; p < count; p++ {
			sw.ProcessFrame(uint64(interval)<<intShift+uint64(p), 1, frame)
		}
	}
	// Warm-up: with only a handful of stored intervals the variance
	// estimate is noisy, so alarms during the first few intervals are
	// expected (the controller ignores them until the window fills).
	for i := 0; i < 20; i++ {
		send(i, 95+rng.Intn(11))
	}
	drainAnomalies(sw)
	for i := 20; i < 150; i++ {
		send(i, 95+rng.Intn(11))
	}
	if got := drainAnomalies(sw); len(got) != 0 {
		t.Fatalf("%d false alarms during stable traffic", len(got))
	}
	// Spike starts at interval 150; it must be flagged when interval 150
	// completes (first packet of 151).
	send(150, 400)
	send(151, 400)
	digests := drainAnomalies(sw)
	if len(digests) == 0 {
		t.Fatal("spike not detected in its first interval")
	}
	if digests[0].Values[1] != 400 {
		t.Fatalf("digest interval value = %d, want 400", digests[0].Values[1])
	}
}

// TestDrillDownRebinding exercises the runtime retuning path of the case
// study: a second stage is bound to per-/24 tracking, read, unbound, and
// rebound to per-host tracking, all while traffic flows.
func TestDrillDownRebinding(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 2, Size: 64, Stages: 2})
	sw := rt.Sharded()
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)

	if _, err := rt.Bind(Binding{Kind: "window", Match: DstIn(slash8),
		IntervalShift: 10, Capacity: 16, K: 2}); err != nil {
		t.Fatal(err)
	}
	// Stage 1: packets per /24 inside 10.0.0.0/16 (shift 8, base 10.0<<8).
	id, err := rt.Bind(Binding{Kind: "freq-dst", Stage: 1, Slot: 1, Match: DstIn(slash8),
		Shift: 8, Base: uint64(packet.ParseIP4(10, 0, 0, 0)) >> 8, Size: 64, PA: 1, PB: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(d packet.IP4) []byte {
		return packet.NewUDPFrame(1, d, 5, 80, 10).Serialize()
	}
	for i := 0; i < 10; i++ {
		sw.ProcessFrame(uint64(i), 1, mk(packet.ParseIP4(10, 0, 5, byte(i))))
	}
	for i := 0; i < 3; i++ {
		sw.ProcessFrame(uint64(20+i), 1, mk(packet.ParseIP4(10, 0, 7, 1)))
	}
	counters := mustRead(t, rt, Counters, 1)
	if counters[5] != 10 || counters[7] != 3 {
		t.Fatalf("per-/24 counters = %v", counters[:10])
	}
	m := mustRead(t, rt, Moments, 1)
	if m.N != 2 || m.Xsum != 13 {
		t.Fatalf("stage-1 moments N=%d sum=%d, want 2/13", m.N, m.Xsum)
	}

	// Drill down: retarget slot 1 at hosts within 10.0.5.0/24.
	if err := rt.Unbind(1, id); err != nil {
		t.Fatal(err)
	}
	if err := rt.ResetSlot(1); err != nil {
		t.Fatal(err)
	}
	slash24 := packet.NewPrefix(packet.ParseIP4(10, 0, 5, 0), 24)
	if _, err := rt.Bind(Binding{Kind: "freq-dst", Stage: 1, Slot: 1, Match: DstIn(slash24),
		Base: uint64(packet.ParseIP4(10, 0, 5, 0)), Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		sw.ProcessFrame(uint64(40+i), 1, mk(packet.ParseIP4(10, 0, 5, 9)))
	}
	sw.ProcessFrame(60, 1, mk(packet.ParseIP4(10, 0, 7, 1))) // outside the /24 now
	counters = mustRead(t, rt, Counters, 1)
	if counters[9] != 7 {
		t.Fatalf("per-host counter = %d, want 7", counters[9])
	}
	var sum uint64
	for _, c := range counters {
		sum += c
	}
	if sum != 7 {
		t.Fatalf("stray counts after rebinding: %v", counters[:16])
	}
}

// TestFreqOutOfRangeValuesSkipped: values beyond the bound size leave all
// state untouched.
func TestFreqOutOfRangeValuesSkipped(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: EchoBias, Size: 8, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	// Value 100 with size 8 → skipped.
	sw.ProcessFrame(0, 1, packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 100).Serialize())
	m := mustRead(t, rt, Moments, 0)
	if m.N != 0 || m.Xsum != 0 {
		t.Fatalf("out-of-range value counted: %+v", m)
	}
	// Value 5 → counted.
	sw.ProcessFrame(1, 1, packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 5).Serialize())
	m = mustRead(t, rt, Moments, 0)
	if m.N != 1 || m.Xsum != 1 {
		t.Fatalf("in-range value not counted: %+v", m)
	}
}

// TestPercentile90InP4: 9:1 weights track the 90th percentile in the switch.
func TestPercentile90InP4(t *testing.T) {
	const domain = 256
	rt := mustRuntime(t, Options{Slots: 1, Size: domain, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: EchoBias, Size: domain, PA: 9, PB: 1}); err != nil {
		t.Fatal(err)
	}
	host := core.NewFreqDist(domain)
	p90 := host.TrackPercentile(9, 1)
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20000; i++ {
		v := int16(rng.Intn(domain))
		sw.ProcessFrame(uint64(i), 1, packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, v).Serialize())
		if err := host.Observe(uint64(v)); err != nil {
			t.Fatal(err)
		}
	}
	m := mustRead(t, rt, Moments, 0)
	if m.Median != p90.Value() {
		t.Fatalf("switch marker %d, host marker %d", m.Median, p90.Value())
	}
	// And the marker is near the true 90th percentile of the uniform
	// domain (≈230).
	if m.Median < 215 || m.Median > 245 {
		t.Fatalf("p90 marker at %d, expected ≈230", m.Median)
	}
}

func TestBindValidation(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 2, Size: 64, Stages: 1})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Slot: 5, Match: EchoOnly(),
		Size: 8, PA: 1, PB: 1}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("bad slot: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Stage: 2, Match: EchoOnly(),
		Size: 8, PA: 1, PB: 1}); !errors.Is(err, ErrBadStage) {
		t.Fatalf("bad stage: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Size: 100, PA: 1, PB: 1}); !errors.Is(err, ErrBadSize) {
		t.Fatalf("bad size: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(), Size: 8, PB: 1}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 80, Capacity: 16, K: 2}); err == nil {
		t.Fatal("huge interval shift accepted")
	}
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 1000, K: 2}); !errors.Is(err, ErrBadSize) {
		t.Fatalf("bad capacity: %v", err)
	}
}

func TestStrictBindValidation(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, Strict: true, StrictCapShift: 4})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Size: 8, PA: 9, PB: 1}); !errors.Is(err, ErrStrict) {
		t.Fatalf("strict percentile weights: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 8, K: 2}); !errors.Is(err, ErrStrict) {
		t.Fatalf("strict capacity: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 16, K: 3}); !errors.Is(err, ErrStrict) {
		t.Fatalf("strict k: %v", err)
	}
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 16, K: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestStrictWindowDetectsSpike: the multiplication-free emission still
// catches a large spike (its variance is approximate, so the check is
// order-of-magnitude rather than exact).
func TestStrictWindowDetectsSpike(t *testing.T) {
	const intShift = 10
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, Strict: true, StrictCapShift: 4})
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: intShift, Capacity: 16, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	frame := packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 0, 1), 5, 80, 10).Serialize()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		count := 50 + rng.Intn(6)
		if i == 35 {
			count = 500
		}
		for p := 0; p < count; p++ {
			sw.ProcessFrame(uint64(i)<<intShift+uint64(p), 1, frame)
		}
	}
	found := false
	for _, d := range drainAnomalies(sw) {
		if d.Values[1] == 500 {
			found = true
		}
	}
	if !found {
		t.Fatal("strict emission missed a 10x spike")
	}
}

// TestTwoStagesIndependentDistributions: both stages update their own slots
// from the same packet.
func TestTwoStagesIndependentDistributions(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 2, Size: 64, Stages: 2})
	sw := rt.Sharded()
	if _, err := rt.Bind(Binding{Kind: "window", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 8, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(Binding{Kind: "freq-proto", Stage: 1, Slot: 1, Match: AllIPv4(),
		Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	tcp := packet.NewTCPFrame(1, 2, 3, 4, packet.FlagSYN).Serialize()
	udp := packet.NewUDPFrame(1, 2, 3, 4, 10).Serialize()
	for i := 0; i < 6; i++ {
		sw.ProcessFrame(uint64(i), 1, tcp)
	}
	for i := 0; i < 4; i++ {
		sw.ProcessFrame(uint64(10+i), 1, udp)
	}
	counters := mustRead(t, rt, Counters, 1)
	if counters[6] != 6 || counters[17] != 4 {
		t.Fatalf("proto counters tcp=%d udp=%d, want 6/4", counters[6], counters[17])
	}
	m := mustRead(t, rt, Moments, 1)
	if m.N != 2 || m.Xsum != 10 {
		t.Fatalf("proto moments %+v", m)
	}
	// Slot 0's window accumulated all ten packets in one interval.
	curReg, _ := rt.Switch().Register(RegCur)
	cur, _ := curReg.Read(0)
	if cur != 10 {
		t.Fatalf("window current accumulator = %d, want 10", cur)
	}
}

func TestResourceReportShape(t *testing.T) {
	lib := Build(Options{Slots: 8, Size: 256, Stages: 2, Echo: true})
	r := p4.AnalyzeProgram(lib.Prog)
	// Binding tables match only parser-set fields: no rule-to-rule
	// dependencies, matching the paper's "at most one dependency" claim
	// with room to spare.
	if r.MatchRuleDependencies != 0 {
		t.Fatalf("MatchRuleDependencies = %d", r.MatchRuleDependencies)
	}
	if r.LongestDepChain < 8 || r.LongestDepChain > 64 {
		t.Fatalf("LongestDepChain = %d, expected a pipeline-plausible depth", r.LongestDepChain)
	}
	// 8 slots × 256 cells × (8+8 bytes) + 14 scalar arrays × 8 slots × 8.
	if r.RegisterBytes != 8*256*16+len(ScalarRegisters)*8*8 {
		t.Fatalf("RegisterBytes = %d", r.RegisterBytes)
	}
}

func TestBuildPanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with zero slots did not panic")
		}
	}()
	Build(Options{Slots: 0, Size: 8, Stages: 1})
}

// TestFreqImbalanceCheck: with k=2 armed, a frequency distribution pushes a
// traffic-imbalance digest identifying the hot value — the drill-down signal
// of the case study.
func TestFreqImbalanceCheck(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1})
	// Track packets per /24 inside 10.0.0.0/16 with the outlier check on.
	slash16 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 16)
	if _, err := rt.Bind(Binding{Kind: "freq-dst", Match: DstIn(slash16),
		Shift: 8, Base: uint64(packet.ParseIP4(10, 0, 0, 0)) >> 8, Size: 64, PA: 1, PB: 1, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	mk := func(subnet byte) []byte {
		return packet.NewUDPFrame(1, packet.ParseIP4(10, 0, subnet, 9), 5, 80, 10).Serialize()
	}
	// Balanced phase: round-robin across six subnets.
	for round := 0; round < 50; round++ {
		for s := byte(0); s < 6; s++ {
			sw.ProcessFrame(uint64(round*6+int(s)), 1, mk(s))
		}
	}
	drainAnomalies(sw)
	// Hot subnet 3 gets a burst.
	for i := 0; i < 200; i++ {
		sw.ProcessFrame(uint64(1000+i), 1, mk(3))
	}
	digests := drainAnomalies(sw)
	if len(digests) == 0 {
		t.Fatal("imbalance never alerted")
	}
	for _, d := range digests {
		if d.Values[1] != 3 {
			t.Fatalf("imbalance digest names value %d, want subnet index 3", d.Values[1])
		}
	}
}

// TestWindowBytesCrossValidation drives byte-counting windows against
// core.Window fed wire lengths.
func TestWindowBytesCrossValidation(t *testing.T) {
	const (
		intShift  = 10
		capacity  = 8
		intervals = 60
	)
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1})
	if _, err := rt.Bind(Binding{Kind: "window-bytes", Match: AllIPv4(),
		IntervalShift: intShift, Capacity: capacity, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	ref := core.NewWindow(capacity)
	rng := rand.New(rand.NewSource(19))

	for i := 0; i < intervals; i++ {
		count := 5 + rng.Intn(5)
		for p := 0; p < count; p++ {
			payload := rng.Intn(600)
			frame := packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 0, 1), 5, 80, payload)
			wire := frame.Serialize()
			ts := uint64(i)<<intShift + uint64(p)
			if i > 0 && p == 0 {
				ref.Tick()
			}
			sw.ProcessFrame(ts, 1, wire)
			ref.Add(uint64(len(wire)))
		}
		if i > 0 {
			m := mustRead(t, rt, Moments, 0)
			cm := ref.Moments()
			if m.N != cm.N || m.Xsum != cm.Sum || m.Xsumsq != cm.Sumsq {
				t.Fatalf("interval %d: switch (N=%d,sum=%d,sumsq=%d) core (%d,%d,%d)",
					i, m.N, m.Xsum, m.Xsumsq, cm.N, cm.Sum, cm.Sumsq)
			}
		}
	}
}

func TestWindowBytesRejectedOnStrict(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, Strict: true, StrictCapShift: 4})
	if _, err := rt.Bind(Binding{Kind: "window-bytes", Match: AllIPv4(),
		IntervalShift: 10, Capacity: 16, K: 2}); !errors.Is(err, ErrStrict) {
		t.Fatalf("byte window on strict target: err = %v, want ErrStrict", err)
	}
}

// TestMedianChangeRate: the marker movement counter tracks the percentile
// change rate the paper names as an anomaly signal — a distribution shift
// shows up as a burst of marker movement, and the counter matches the
// reference library's exactly.
func TestMedianChangeRate(t *testing.T) {
	const domain = 256
	rt := mustRuntime(t, Options{Slots: 1, Size: domain, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: EchoBias, Size: domain, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	host := core.NewFreqDist(domain)
	med := host.TrackMedian()
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(51))

	send := func(v int16) {
		sw.ProcessFrame(0, 1, packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, v).Serialize())
		if err := host.Observe(uint64(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1: stable values around 50.
	for i := 0; i < 3000; i++ {
		send(int16(40 + rng.Intn(21)))
	}
	m := mustRead(t, rt, Moments, 0)
	if m.MedianMoves != med.Moves() {
		t.Fatalf("switch moves %d, host %d", m.MedianMoves, med.Moves())
	}
	stablePhase := m.MedianMoves

	// Phase 2: the distribution jumps to around 200. The marker stays put
	// until the new mode's mass overtakes the old one's (≈3000 packets),
	// then walks the ~150 slots to the new mode one step per packet — the
	// movement burst IS the change-rate signal.
	for i := 0; i < 4000; i++ {
		send(int16(190 + rng.Intn(21)))
	}
	m = mustRead(t, rt, Moments, 0)
	if m.MedianMoves != med.Moves() {
		t.Fatalf("switch moves %d, host %d after shift", m.MedianMoves, med.Moves())
	}
	shiftBurst := m.MedianMoves - stablePhase
	if shiftBurst < 140 {
		t.Fatalf("distribution shift produced only %d marker moves, want ≥140", shiftBurst)
	}
	if stablePhase > shiftBurst {
		t.Fatalf("stable phase moved more (%d) than the shift (%d): no change-rate signal",
			stablePhase, shiftBurst)
	}
}
