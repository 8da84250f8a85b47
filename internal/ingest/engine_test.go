package ingest

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// newBoundRuntime builds a 1-slot dst24 frequency app over n shards.
func newBoundRuntime(t testing.TB, shards int, k uint64) *stat4p4.Runtime {
	t.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, 0x0a0000, 256, 1, 1, k); err != nil {
		sr.Close()
		t.Fatal(err)
	}
	return sr
}

// testFrames builds count UDP frames spread over flows and /24 buckets.
func testFrames(count int) [][]byte {
	frames := make([][]byte, count)
	for i := range frames {
		dst := packet.ParseIP4(10, 0, byte(i%7), byte(i%50))
		src := packet.ParseIP4(192, 0, 2, byte(i%11))
		frames[i] = packet.NewUDPFrame(src, dst, uint16(1000+i%13), 80, i%32).Serialize()
	}
	return frames
}

// TestEngineMatchesSerial pushes the same frames through the ingest plane
// and through a serial reference switch and compares the merged moments —
// the ring handoff must be invisible to the statistics.
func TestEngineMatchesSerial(t *testing.T) {
	frames := testFrames(5000)

	// Reference: serial runtime, same binding.
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, 0x0a0000, 256, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		rt.Sharded().ProcessFrame(uint64(i+1), 1, f)
	}
	want, err := stat4p4.Read(rt, stat4p4.Moments, 0)
	if err != nil {
		t.Fatal(err)
	}

	sr := newBoundRuntime(t, 4, 0)
	defer sr.Close()
	e := New(sr, Config{})
	p := e.NewProducer()
	for i, f := range frames {
		if !p.AddWait(uint64(i+1), 1, f) {
			t.Fatalf("frame %d refused", i)
		}
	}
	p.FlushWait()
	p.Close()
	e.Stop()

	if got := e.Frames(); got != uint64(len(frames)) {
		t.Fatalf("consumed %d frames, want %d", got, len(frames))
	}
	got, err := stat4p4.Read(e.Runtime(), stat4p4.Moments, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Xsum != want.Xsum || got.Xsumsq != want.Xsumsq ||
		got.Var != want.Var || got.SD != want.SD || got.Median != want.Median {
		t.Fatalf("merged moments %+v, serial reference %+v", got, want)
	}
	if sb, sf := e.Shed(); sb != 0 || sf != 0 {
		t.Fatalf("lossless load shed %d batches / %d frames", sb, sf)
	}
}

// TestEngineServeConn drives the wire protocol end to end over an in-memory
// connection, including the idle flush and the record validation.
func TestEngineServeConn(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()

	client, server := net.Pipe()
	frames := testFrames(300)
	done := make(chan error, 1)
	go func() {
		defer client.Close()
		var buf bytes.Buffer
		for i, f := range frames {
			if err := WriteRecord(&buf, uint64(i+1), 7, f); err != nil {
				done <- err
				return
			}
		}
		_, err := client.Write(buf.Bytes())
		done <- err
	}()
	n, err := e.ServeConn(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(frames)) {
		t.Fatalf("served %d records, want %d", n, len(frames))
	}
	for e.Frames() < uint64(len(frames)) {
		runtime.Gosched()
	}
	st := e.Stats()
	if st.Switch.PktsIn != uint64(len(frames)) {
		t.Fatalf("datapath saw %d frames, want %d", st.Switch.PktsIn, len(frames))
	}

	// The largest legal record fits the reader whole (and is shed: no block
	// holds it), wherever the reads cut it, and the stream carries on.
	var jumbo bytes.Buffer
	_ = WriteRecord(&jumbo, 1, 1, frames[0])
	_ = WriteRecord(&jumbo, 2, 1, make([]byte, ring.MaxFrameLen))
	_ = WriteRecord(&jumbo, 3, 1, frames[1])
	_, shedBefore := e.Shed()
	if n, err := e.ServeConn(&chunkReader{b: jumbo.Bytes(), n: 4099}); n != 3 || err != nil {
		t.Fatalf("jumbo stream: served %d records, error %v; want 3, nil", n, err)
	}
	if _, shed := e.Shed(); shed != shedBefore+1 {
		t.Fatalf("jumbo frame: %d frames shed, want 1", shed-shedBefore)
	}

	// A record with an impossible length is a protocol error.
	bad := append([]byte(nil), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
	if _, err := e.ServeConn(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// A truncated frame is too.
	var tr bytes.Buffer
	_ = WriteRecord(&tr, 1, 1, frames[0])
	if _, err := e.ServeConn(bytes.NewReader(tr.Bytes()[:tr.Len()-3])); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestEngineShedsFrameLongerThanBlock pins the block contract Config states:
// a legal record whose frame is longer than BlockSize − FrameHdrLen is read
// whole, then refused by every block and counted as shed, and the ledger
// still balances. Under the default 32 KiB block that is a 40 000-byte frame.
func TestEngineShedsFrameLongerThanBlock(t *testing.T) {
	sr := newBoundRuntime(t, 1, 0)
	defer sr.Close()
	e := New(sr, Config{})
	frames := testFrames(2)
	var wire bytes.Buffer
	_ = WriteRecord(&wire, 1, 1, frames[0])
	_ = WriteRecord(&wire, 2, 1, make([]byte, 40000))
	_ = WriteRecord(&wire, 3, 1, frames[1])
	n, err := e.ServeConn(&wire)
	e.Stop()
	if n != 3 || err != nil {
		t.Fatalf("served %d records, error %v; want 3, nil", n, err)
	}
	if _, shed := e.Shed(); shed != 1 || e.Frames()+shed != n {
		t.Fatalf("consumed %d + shed %d, want 2 + 1 of %d offered", e.Frames(), shed, n)
	}
}

// TestEngineSetupAllocatesWhatItTouches bounds what constructing an engine
// commits: New, one 256-frame batch and Stop allocate under 1 MiB of heap,
// where a slab allocated up front is 8 MiB on its own. Timing cannot see
// this reliably; the allocator's byte count can.
func TestEngineSetupAllocatesWhatItTouches(t *testing.T) {
	sr := newBoundRuntime(t, 1, 0)
	defer sr.Close()
	frames := testFrames(256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New(sr, Config{})
	p := e.NewProducer()
	for i, f := range frames {
		p.AddWait(uint64(i+1), 1, f)
	}
	p.FlushWait()
	for e.Frames() < uint64(len(frames)) {
		runtime.Gosched()
	}
	p.Close()
	e.Stop()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New + one batch + Stop allocated %d bytes, want under 1 MiB", got)
	}
}

// TestEngineBackpressureSheds saturates a tiny ingest plane with the
// consumer unable to keep up (it is blocked inside a Do) and checks the shed
// ledger adds up — frames are never silently lost.
func TestEngineBackpressureSheds(t *testing.T) {
	sr := newBoundRuntime(t, 1, 0)
	defer sr.Close()
	e := New(sr, Config{RingCap: 2, SlabBlocks: 2, BlockSize: 4096, BatchFrames: 4})
	defer e.Stop()

	// Hold the consumer hostage so nothing drains.
	gate := make(chan struct{})
	holding := make(chan struct{})
	go e.Do(func() { close(holding); <-gate })
	<-holding

	frames := testFrames(200)
	p := e.NewProducer()
	accepted := 0
	for i, f := range frames {
		if p.Add(uint64(i+1), 1, f) {
			accepted++
		}
	}
	p.Close()
	close(gate)
	e.Stop()

	_, shedFrames := e.Shed()
	if shedFrames == 0 {
		t.Fatal("saturation shed nothing")
	}
	if got := e.Frames() + shedFrames; got != uint64(len(frames)) {
		t.Fatalf("consumed %d + shed %d != offered %d", e.Frames(), shedFrames, len(frames))
	}
}

// TestEngineShedLedgerConcurrent drives both shed paths at once — slab
// exhaustion (more producers than blocks) and full-ring refusal (consumer
// blocked inside a Do) — from concurrent producers, and checks the global
// ledger is exact: every offered frame is either consumed or accounted to
// the shed counters. Nothing may be double-counted under contention.
func TestEngineShedLedgerConcurrent(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	// 8 producers contending for 4 slab blocks over a 2-deep ring: some Adds
	// lose the block race (slab shed), some flushes hit the full ring (batch
	// shed), and a lucky few land and drain at Stop.
	e := New(sr, Config{RingCap: 2, SlabBlocks: 4, BlockSize: 4096, BatchFrames: 8})
	defer e.Stop()

	gate := make(chan struct{})
	holding := make(chan struct{})
	go e.Do(func() { close(holding); <-gate })
	<-holding

	const producers = 8
	const perProducer = 400
	var wg sync.WaitGroup
	var offered, accepted atomic.Uint64
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := e.NewProducer()
			defer p.Close()
			frames := testFrames(perProducer)
			for i, f := range frames {
				offered.Add(1)
				if p.Add(uint64(w*perProducer+i+1), 1, f) {
					accepted.Add(1)
				}
			}
			p.Flush()
		}(w)
	}
	wg.Wait()
	close(gate)
	e.Stop() // drains whatever made it into the ring

	shedBatches, shedFrames := e.Shed()
	if shedFrames == 0 || shedBatches == 0 {
		t.Fatalf("contention exercised neither shed path: %d batches / %d frames",
			shedBatches, shedFrames)
	}
	if e.Frames() == 0 {
		t.Fatal("nothing drained — the ring never handed off")
	}
	if got := e.Frames() + shedFrames; got != offered.Load() {
		t.Fatalf("ledger leak: consumed %d + shed %d != offered %d",
			e.Frames(), shedFrames, offered.Load())
	}
	// Add's return value must agree with the ledger: a frame reported
	// accepted is in a committed or still-buffered batch, never shed as a
	// frame-level casualty — but an accepted frame can still die with its
	// batch at flush, so accepted ≥ consumed.
	if accepted.Load() < e.Frames() {
		t.Fatalf("consumed %d frames but only %d were accepted", e.Frames(), accepted.Load())
	}
}

// TestEngineDoAfterStop pins the control path's quiesced fallback.
func TestEngineDoAfterStop(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	e.Stop()
	e.Stop() // idempotent

	ran := false
	e.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do after Stop did not run")
	}
	var sb strings.Builder
	if err := e.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineExposition checks the live scrape path: ingest gauges and shard
// series present, exposition valid, alerts surfaced through the sink.
func TestEngineExposition(t *testing.T) {
	sr := newBoundRuntime(t, 2, 2) // k=2 arms the imbalance check
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()

	// Balanced phase across 7 subnets, then one subnet goes hot — the
	// case-study recipe for an imbalance digest.
	p := e.NewProducer()
	ts := uint64(0)
	for _, f := range testFrames(2100) {
		ts++
		p.AddWait(ts, 1, f)
	}
	spike := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), packet.ParseIP4(10, 0, 3, 3), 5, 80, 10).Serialize()
	for i := 0; i < 2000; i++ {
		ts++
		p.AddWait(ts, 1, spike)
	}
	p.FlushWait()
	p.Close()
	for e.Frames() < ts {
		runtime.Gosched()
	}

	var sb strings.Builder
	if err := e.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if _, err := telemetry.ValidateExposition(out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stat4d_ingest_ring_depth",
		"stat4d_ingest_shed_batches 0",
		"stat4d_ingest_frames 4100",
		"stat4d_pkts_in 4100",
		"stat4d_shard0_packet_cost_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	recent, total := e.Alerts()
	if total == 0 || len(recent) == 0 {
		t.Fatal("single-destination spike raised no alerts")
	}
	if len(recent) > 128 {
		t.Fatalf("alert store kept %d digests, cap is 128", len(recent))
	}
	for _, d := range recent {
		if len(d.Values) == 0 {
			t.Fatal("empty digest in alert store")
		}
	}
}

// TestEnginePlayPcap round-trips a recorded capture through the file source.
func TestEnginePlayPcap(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.pcap"
	f, err := createPcap(path, 500)
	if err != nil {
		t.Fatal(err)
	}
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()
	n, err := e.PlaySource(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(f) {
		t.Fatalf("played %d frames, wrote %d", n, f)
	}
	for e.Frames() < n {
		runtime.Gosched()
	}

	// The directory source plays the same capture once per copy.
	n2, err := e.PlaySource(dir, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("dir source played %d, want %d", n2, n)
	}
}

func createPcap(path string, count int) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)
	frames := testFrames(count)
	for i, fr := range frames {
		if err := w.WriteFrame(uint64(i+1)*1000, fr); err != nil {
			return 0, err
		}
	}
	return len(frames), nil
}

// TestIngestSteadyStateZeroAlloc pins the daemon's per-packet guarantee with
// live observers attached: once the slab, ring and shard buffers are warm, a
// frame through producer → ring → consumer → sharded datapath allocates
// nothing, on any goroutine (AllocsPerRun measures the global allocator).
// The backlog row pushes each run's descriptors behind a held consumer, so
// it coalesces them into one forked batch of ForkFrames and an inline rest.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		descs int // descriptors of 64 frames per run; above one, as a backlog
	}{
		{"2s", 1},
		{"2s-backlog", 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr := newBoundRuntime(t, 2, 0) // k=0: digest-free, digests allocate by design
			defer sr.Close()
			e := New(sr, Config{BatchFrames: 64})
			defer e.Stop()

			frames := testFrames(64)
			if tc.descs > 1 && tc.descs*len(frames) < e.ss.ForkFrames() {
				t.Fatalf("a backlog of %d frames never forks", tc.descs*len(frames))
			}
			p := e.NewProducer()
			defer p.Close()
			// The hold is a control operation sent as Do would send it, minus
			// Do's own allocations.
			holding, gate := make(chan struct{}), make(chan struct{})
			hold := func() { holding <- struct{}{}; <-gate }
			ts := uint64(0)
			run := func() {
				if tc.descs > 1 {
					e.ctrl <- hold
					e.parker.Unpark()
					<-holding
				}
				for range tc.descs {
					for _, f := range frames {
						ts++
						p.AddWait(ts, 1, f)
					}
					p.FlushWait()
				}
				if tc.descs > 1 {
					gate <- struct{}{}
				}
				for e.Frames() < ts {
					runtime.Gosched()
				}
			}
			for i := 0; i < 64; i++ {
				run()
			}
			perRun := testing.AllocsPerRun(100, run)
			if perPacket := perRun / float64(tc.descs*len(frames)); perPacket != 0 {
				t.Errorf("steady state allocates %.3f/packet (%.1f/run), want 0", perPacket, perRun)
			}
			if e.sp.Shards[0].Cost.Count() == 0 && e.sp.Shards[1].Cost.Count() == 0 {
				t.Fatal("observers recorded nothing")
			}
		})
	}
}

// batchStarts is an Observer that records, on one shard, the engine's
// consumed-frame count at every sampled packet. The count moves only after a
// ProcessBatch returns, so the values it sees are the first frame numbers of
// the batches the shard ran: one value per ProcessBatch whose partition held
// a sampled packet.
type batchStarts struct {
	e    *Engine
	seen []uint64
}

func (o *batchStarts) PacketCost(uint64) {
	if f := o.e.frames.Load(); len(o.seen) == 0 || o.seen[len(o.seen)-1] != f {
		o.seen = append(o.seen, f)
	}
}
func (o *batchStarts) DigestEmitted() {}
func (o *batchStarts) DigestDropped() {}

// alertingFrames is testFrames' balanced mix for the first 40 % of count,
// then one destination going hot — the case-study recipe, under which a k=2
// binding raises an imbalance digest on most hot frames.
func alertingFrames(count int) [][]byte {
	frames := testFrames(count * 2 / 5)
	spike := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), packet.ParseIP4(10, 0, 3, 3), 5, 80, 10).Serialize()
	for len(frames) < count {
		frames = append(frames, spike)
	}
	return frames
}

// sortedDigests renders digests in a canonical order, for comparing alert
// streams that agree per shard but not in how the shards interleave.
func sortedDigests(ds []p4.Digest) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprint(d.ID, d.Values)
	}
	sort.Strings(out)
	return out
}

// TestEngineCoalescesBacklog holds the consumer inside Do while a backlog of
// descriptors — and then Stop's poison — is pushed, releases it, and checks
// what it made of the backlog: at two shards one ProcessBatch absorbed
// descriptors until it held ForkFrames frames or half the slab's blocks, and
// the stop descriptor was never folded in (every descriptor pushed before it
// was consumed); at one shard every ProcessBatch held one descriptor, one
// block. Either way the merged snapshot and the alerts equal an offline
// replay fed one descriptor at a time, no digest is dropped — the 2-shard
// backlog's first batch puts over 2 000 alerting frames on one shard, twice a
// Switch's default mailbox — and the ledger balances.
func TestEngineCoalescesBacklog(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		shards, descs, perDesc, slab int
	}{
		// 5 000 frames; no multiple of perDesc is ForkFrames.
		{"1s", 1, 50, 100, 0},
		{"2s", 2, 50, 100, 0},
		// 8 blocks: a batch stops at 4 descriptors, far short of ForkFrames.
		{"2s-half-slab", 2, 8, 10, 8},
	} {
		shards, descs, perDesc := tc.shards, tc.descs, tc.perDesc
		frames := alertingFrames(descs * perDesc)
		sr := newBoundRuntime(t, shards, 2)
		defer sr.Close()
		e := New(sr, Config{BatchFrames: perDesc, SlabBlocks: tc.slab, AlertKeep: 2 * len(frames)})
		obs := make([]*batchStarts, shards)
		e.Do(func() {
			for i := range obs {
				obs[i] = &batchStarts{e: e}
				e.ss.Shard(i).SetObserver(obs[i])
			}
		})

		gate, holding := make(chan struct{}), make(chan struct{})
		go e.Do(func() { close(holding); <-gate })
		<-holding
		p := e.NewProducer()
		for i, f := range frames {
			p.AddWait(uint64(i+1), 1, f)
		}
		p.Close()
		stopped := make(chan struct{})
		go func() { e.Stop(); close(stopped) }()
		for e.ring.Len() < descs+1 {
			runtime.Gosched()
		}
		close(gate)
		<-stopped

		offered := uint64(len(frames))
		_, shed := e.Shed()
		if e.Frames() != offered || e.Frames()+shed != offered {
			t.Fatalf("%s: consumed %d + shed %d, offered %d", tc.name, e.Frames(), shed, offered)
		}
		if got := e.batches.Load(); got != uint64(descs) {
			t.Fatalf("%s: ingest_batches %d, want %d descriptors", tc.name, got, descs)
		}
		st := e.Stats()
		if st.Switch.PktsIn != offered {
			t.Fatalf("%s: datapath saw %d frames, want %d", tc.name, st.Switch.PktsIn, offered)
		}
		if st.Switch.DigestDrops != 0 {
			t.Fatalf("%s: %d digests dropped", tc.name, st.Switch.DigestDrops)
		}

		// One ProcessBatch per descriptor at one shard; at two, each absorbs
		// whole descriptors until it holds ForkFrames or half the slab.
		step := uint64(perDesc)
		if fork := e.ss.ForkFrames(); fork > 0 {
			blocks := min((fork+perDesc-1)/perDesc, (e.cfg.SlabBlocks+1)/2)
			step = uint64(blocks * perDesc)
		}
		var want []uint64
		for s := uint64(0); s < offered; s += step {
			want = append(want, s)
		}
		starts := map[uint64]bool{}
		for _, o := range obs {
			for _, s := range o.seen {
				starts[s] = true
			}
		}
		if len(starts) != len(want) {
			t.Fatalf("%s: %d batches started, want %d starting at %v", tc.name, len(starts), len(want), want)
		}
		for _, s := range want {
			if !starts[s] {
				t.Fatalf("%s: no batch started at frame %d; want batches starting at %v", tc.name, s, want)
			}
		}

		ref := newBoundRuntime(t, shards, 2)
		defer ref.Close()
		var refAlerts []p4.Digest
		ref.Sharded().SetDigestSink(func(d p4.Digest) { refAlerts = append(refAlerts, d) })
		for start := 0; start < len(frames); start += perDesc {
			batch := make([]p4.FrameIn, 0, perDesc)
			for i := start; i < start+perDesc; i++ {
				batch = append(batch, p4.FrameIn{TsNs: uint64(i + 1), Port: 1, Data: frames[i]})
			}
			ref.Sharded().ProcessBatch(batch, nil)
		}
		if !reflect.DeepEqual(e.MergedSnapshot(), ref.MergedSnapshot()) {
			t.Fatalf("%s: merged snapshot differs from a replay fed one descriptor at a time", tc.name)
		}
		alerts, total := e.Alerts()
		if total == 0 || total != uint64(len(refAlerts)) || ref.Sharded().Stats().DigestDrops != 0 {
			t.Fatalf("%s: %d alerts, a replay fed one descriptor at a time raised %d (%d dropped)",
				tc.name, total, len(refAlerts), ref.Sharded().Stats().DigestDrops)
		}
		if !reflect.DeepEqual(sortedDigests(alerts), sortedDigests(refAlerts)) {
			t.Fatalf("%s: alerts differ from a replay fed one descriptor at a time", tc.name)
		}
	}
}
