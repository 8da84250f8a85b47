package netem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// runSchedScript interprets a byte string as a deterministic sequence of
// At/After/RunUntil operations against a fresh simulator and returns the
// dispatch trace (event id @ dispatch time), final clock and step count.
// Every third handler schedules a child event, so the script also exercises
// scheduling from inside handlers (including zero-delay children that tie
// the current instant).
func runSchedScript(s simulator, data []byte) (trace []string, now, steps uint64) {
	id := 0
	var rec func(i int) func()
	rec = func(i int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("%d@%d", i, s.Now()))
			if i%3 == 0 {
				id++
				s.After(uint64(i%7)*13, rec(id))
			}
		}
	}
	for len(data) >= 6 {
		op := data[0]
		t := uint64(binary.LittleEndian.Uint32(data[1:5]))
		switch data[5] % 3 {
		case 0:
			// Dense: force equal-time collisions (FIFO tie-breaks).
			t %= 1 << 10
		case 1:
			// Mid-range: within the wheel horizon, spread across levels.
		case 2:
			// Far: cross wheel levels and the 2^32 overflow boundary.
			t <<= 14
		}
		data = data[6:]
		switch op % 3 {
		case 0:
			id++
			s.At(t, rec(id))
		case 1:
			id++
			s.After(t, rec(id))
		case 2:
			s.RunUntil(t)
		}
	}
	s.Run()
	return trace, s.Now(), s.Steps()
}

func diffSchedScript(t *testing.T, data []byte) {
	t.Helper()
	wTrace, wNow, wSteps := runSchedScript(NewSim(), data)
	rTrace, rNow, rSteps := runSchedScript(&refSim{}, data)
	if len(wTrace) != len(rTrace) {
		t.Fatalf("dispatch counts differ: wheel %d, reference %d", len(wTrace), len(rTrace))
	}
	for i := range wTrace {
		if wTrace[i] != rTrace[i] {
			t.Fatalf("dispatch %d differs: wheel %s, reference %s", i, wTrace[i], rTrace[i])
		}
	}
	if wNow != rNow {
		t.Fatalf("final clock differs: wheel %d, reference %d", wNow, rNow)
	}
	if wSteps != rSteps {
		t.Fatalf("steps differ: wheel %d, reference %d", wSteps, rSteps)
	}
}

// TestSchedulerEquivalenceRandom runs seeded random operation scripts on the
// wheel and the reference engine and requires identical dispatch order
// (including equal-time FIFO), final clock and step counts.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6*(1+rng.Intn(120)))
		rng.Read(data)
		diffSchedScript(t, data)
	}
}

// TestSchedulerEquivalenceTargeted pins hand-picked corner scripts: bursts
// of equal timestamps, RunUntil clamps (earlier deadlines, past
// scheduling), and timestamps beyond the wheel's 2^32 horizon in several
// distinct far blocks.
func TestSchedulerEquivalenceTargeted(t *testing.T) {
	mk := func(ops ...[3]uint64) []byte {
		var data []byte
		for _, op := range ops {
			var b [6]byte
			b[0] = byte(op[0])
			binary.LittleEndian.PutUint32(b[1:5], uint32(op[1]))
			b[5] = byte(op[2])
			data = append(data, b[:]...)
		}
		return data
	}
	cases := [][3]uint64{}
	// Equal-time burst at three instants.
	for i := 0; i < 12; i++ {
		cases = append(cases, [3]uint64{0, uint64(i % 3 * 100), 0})
	}
	// Far timestamps: distinct 2^32 blocks via the <<14 scaling.
	cases = append(cases,
		[3]uint64{0, 1 << 20, 2}, // 2^34
		[3]uint64{0, 5 << 20, 2}, // later block
		[3]uint64{2, 900, 0},     // RunUntil mid-burst
		[3]uint64{2, 10, 0},      // earlier deadline: clamps, must not rewind
		[3]uint64{0, 50, 0},      // now in the past: clamps to the clock
		[3]uint64{1, 300, 0},     // relative schedule after clamping
		[3]uint64{2, 1 << 26, 1}, // deadline between the far blocks
	)
	diffSchedScript(t, mk(cases...))
}

// TestWheelCrossWindowInsertAfterBoundedRun pins the cursor invariant: a
// bounded run that stops at a deadline inside a drained window must leave
// the wheel able to file later insertions that precede already-pending
// far events. A cursor advanced too far would misfile them.
func TestWheelCrossWindowInsertAfterBoundedRun(t *testing.T) {
	s := NewSim()
	var got []uint64
	add := func(at uint64) { s.At(at, func() { got = append(got, at) }) }
	add(5)
	add(70_000) // level-2 territory relative to the cursor
	s.RunUntil(65_600)
	// The pending 70 000 event's bucket was (partly) cascaded; these now sit
	// between the deadline and it.
	add(65_700)
	add(66_000)
	s.Run()
	want := []uint64{5, 65_700, 66_000, 70_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// FuzzSchedulerEquivalence drives the wheel and the reference engine with the
// same fuzzed operation script and requires identical dispatch order and
// final clock — the event-loop analogue of the compiled-datapath
// FuzzDifferential.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 2, 0, 255, 255, 255, 255, 2, 2, 0, 0, 1, 0, 1})
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 90)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*512 {
			data = data[:6*512]
		}
		diffSchedScript(t, data)
	})
}

// runStreamTrace runs the end-to-end fixture of TestSwitchNodeEndToEnd on the
// production engine or the reference (ref) and returns its full observable
// trace.
func runStreamTrace(t *testing.T, ref bool, shards int) []string {
	t.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	const intShift = 10
	var trace []string
	onDigest := func(now uint64, d p4.Digest) {
		trace = append(trace, fmt.Sprintf("digest@%d id=%d vals=%v", now, d.ID, d.Values))
	}
	deliver := func(now uint64, data []byte) {
		trace = append(trace, fmt.Sprintf("frame@%d len=%d b0=%d", now, len(data), data[0]))
	}

	dest := []packet.IP4{packet.ParseIP4(10, 0, 0, 1)}
	load := &traffic.LoadBalanced{Dests: dest, Rate: 20e6, End: 40 << intShift, Seed: 1, Jitter: 0.2}
	spike := &traffic.Spike{Dest: dest[0], Rate: 300e6, Start: 30 << intShift, End: 40 << intShift, Seed: 2, Jitter: 0.2}
	st := traffic.Merge(load, spike)

	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: 8, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := sr.Sharded()
	sim, node := attach(ref, sw, 500, onDigest)
	node.Connect(0, 100, deliver)
	node.InjectStream(st, 1)
	sim.Run()
	trace = append(trace, fmt.Sprintf("end@%d steps=%d", sim.Now(), sim.Steps()))
	return trace
}

// TestInjectStreamBatchedEquivalence pins the batched pump against the
// reference per-packet-event engine: same stream, same digests at the same
// controller arrival times, same frame deliveries, same final clock and
// step count — for the plain switch and a sharded node.
func TestInjectStreamBatchedEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		wheel := runStreamTrace(t, false, shards)
		ref := runStreamTrace(t, true, shards)
		if len(wheel) != len(ref) {
			t.Fatalf("shards=%d: trace lengths differ: wheel %d, reference %d", shards, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("shards=%d: trace %d differs:\nwheel:     %s\nreference: %s", shards, i, wheel[i], ref[i])
			}
		}
	}
}

// TestDigestQueueObservedBeforeReceive is the regression test for the
// drain-time occupancy observable: the digest being popped still counts, so
// draining a backlog of 3 must record samples {3,2,1} — never {2,1,0} — on
// the production node's sink buffer and on the reference node's channel
// drain alike.
func TestDigestQueueObservedBeforeReceive(t *testing.T) {
	check := func(name string, q *telemetry.Hist) {
		t.Helper()
		if q.Count() != 3 {
			t.Fatalf("%s: %d occupancy samples, want 3", name, q.Count())
		}
		if q.Max() != 3 || q.Min() != 1 {
			t.Fatalf("%s: occupancy range [%d,%d], want [1,3] (popped digest must count)",
				name, q.Min(), q.Max())
		}
		if q.Sum() != 6 {
			t.Fatalf("%s: occupancy sum %d, want 3+2+1", name, q.Sum())
		}
	}
	n := &SwitchNode{Sim: NewSim(), CtrlDelay: 10}
	n.Metrics = telemetry.NewNodeMetrics()
	n.OnDigest = func(now uint64, d p4.Digest) {}
	for i := 0; i < 3; i++ {
		n.digestSink(p4.Digest{ID: i})
	}
	n.drainDigests()
	check("wheel", n.Metrics.DigestQueue)

	ch := make(chan p4.Digest, 8)
	ref := newRefNode(&refSim{}, nil, ch, 10)
	ref.Metrics = telemetry.NewNodeMetrics()
	ref.OnDigest = func(now uint64, d p4.Digest) {}
	for i := 0; i < 3; i++ {
		ch <- p4.Digest{ID: i}
	}
	ref.drainDigests()
	check("reference", ref.Metrics.DigestQueue)
}
