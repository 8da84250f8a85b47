package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/debug"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// batchFrames is the unit everything is sized in: the daemon's default batch
// descriptor, the generator's write size, and the staged replay's span.
const batchFrames = 256

// workload is one set of inputs plus the daemon flags it runs under. The
// fields mirror cmd/stat4d's -shards, -track, -k and -flow-table; everything
// else stays at the daemon's defaults.
type workload struct {
	name string
	why  string

	shards      int
	track       string // dst24 | flow | window, as in stat4d -track
	k           uint64
	flowBuckets int // stat4d -flow-table; 0 leaves the flow plane out

	// generate returns the seeded packet stream; the trace is its first max
	// packets.
	generate func(seed int64, max int) traffic.Stream
}

var workloads = []workload{
	{
		name:   "bulk-dst24-1s",
		why:    "smallest packets, dense 256-cell track, no digests, 1 shard: per-packet interpreter cost dominates and sharding, flow table and digest paths are bypassed - the bare-forwarding baseline",
		shards: 1, track: "dst24",
		generate: minSizeUDP,
	},
	{
		name:   "bulk-dst24-2s",
		why:    "byte-identical input on 2 shards: only partition, SPSC handoff, park/unpark and reduce differ from bulk-dst24-1s, so a sharding change shows here and must read no change there",
		shards: 2, track: "dst24",
		generate: minSizeUDP,
	},
	{
		name:   "bulk-flowchurn-1s",
		why:    "2^20 zipf flows with a churning tail into a 2^20-bucket flow table: hashed, cache-missing access to MB-scale registers with epoch expiry; working set far above L2 and RSS dominated by program state",
		shards: 1, track: "flow", flowBuckets: 1 << 20,
		generate: flowChurn,
	},
	{
		name:   "burst-window-2s",
		why:    "pulse-ddos attack trace on the window track with k=2 on 2 shards: digests fire every lap and the per-burst fixed costs (flush-at-idle, MPSC push, consumer and shard wake-ups) are not amortised",
		shards: 2, track: "window", k: 2,
		generate: pulseDDoS,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// minSizeUDP draws distinct 52-byte UDP frames (10-byte payload) over random
// 5-tuples whose destinations spread across all 256 /24 subnets of
// 10.0.0.0/16, the space the daemon's default dst24 binding indexes.
func minSizeUDP(seed int64, _ int) traffic.Stream {
	return &udpStream{rng: rand.New(rand.NewSource(seed))}
}

type udpStream struct {
	rng *rand.Rand
	ts  uint64
}

func (g *udpStream) Next() (traffic.Pkt, bool) {
	g.ts += 500 + uint64(g.rng.Intn(1000))
	src := packet.IP4(uint32(packet.ParseIP4(172, 16, 0, 0)) + uint32(g.rng.Intn(1<<20)))
	dst := packet.ParseIP4(10, 0, byte(g.rng.Intn(256)), byte(1+g.rng.Intn(254)))
	sport, dport := uint16(1024+g.rng.Intn(60000)), uint16(1+g.rng.Intn(1024))
	return traffic.Pkt{TsNs: g.ts, Frame: packet.NewUDPFrame(src, dst, sport, dport, 10)}, true
}

// flowChurn is the flow-table workload's traffic: the FlowMix shape the
// detection matrix's flow-churn scenario uses, at 1 Mpps of virtual time so
// mice age out between laps while the 4096-flow head persists.
func flowChurn(seed int64, max int) traffic.Stream {
	dests := make([]packet.IP4, 200)
	for i := range dests {
		dests[i] = packet.ParseIP4(10, 0, byte(i), 1)
	}
	end := uint64(max)*1000 + 50e6 // Poisson slack so the stream outlasts max
	return &traffic.FlowMix{
		Dests: dests, Base: packet.ParseIP4(198, 18, 0, 0),
		Flows: 1 << 20, Stable: 4096, ChurnNs: end / 8, S: 1.1,
		Rate: 1e6, End: end, Seed: seed,
	}
}

// pulseDDoS is the registry's pulse-wave attack trace at full scale.
func pulseDDoS(seed int64, _ int) traffic.Stream {
	sc, ok := traffic.FindScenario(traffic.Registry(1.0), "pulse-ddos")
	if !ok {
		panic("blast: traffic registry lost pulse-ddos")
	}
	return sc.Build(seed)
}

// trace is a workload's input, encoded once: wire holds the ServeConn records
// back to back, so the generator writes slices of it and every other consumer
// reads frames out of it without a second copy.
type trace struct {
	wire  []byte
	off   []int    // off[i] is record i's start; off[n] == len(wire)
	ts    []uint64 // lap-0 timestamps
	lapNs uint64   // added per lap, keeping virtual time monotone
}

func (t *trace) n() int { return len(t.ts) }

func (t *trace) frame(i int) []byte { return t.wire[t.off[i]+ring.FrameHdrLen : t.off[i+1]] }

// stamp rewrites the wire timestamps of records [lo, hi) for a lap.
func (t *trace) stamp(lo, hi int, lap uint64) {
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint64(t.wire[t.off[i]:], t.ts[i]+lap*t.lapNs)
	}
}

// frameIns fills dst with records [lo, hi) at a lap's timestamps.
func (t *trace) frameIns(dst []p4.FrameIn, lo, hi int, lap uint64) []p4.FrameIn {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, p4.FrameIn{TsNs: t.ts[i] + lap*t.lapNs, Port: 1, Data: t.frame(i)})
	}
	return dst
}

// encode serialises the stream's first max packets into a trace, truncated
// to whole batches so bursts and writes never straddle a lap boundary. The
// generators allocate a packet per event; the collector is held close while
// they run, or their garbage, not the engine, would be the run's peak RSS.
func encode(s traffic.Stream, max int) (*trace, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	t := &trace{off: make([]int, 0, max+1), ts: make([]uint64, 0, max)}
	var w sliceWriter
	var buf []byte
	for len(t.ts) < max {
		p, ok := s.Next()
		if !ok {
			break
		}
		buf = p.Frame.AppendSerialize(buf[:0])
		if w == nil {
			// Sized for frames like the first; a mixed trace just grows.
			w = make(sliceWriter, 0, max*(ring.FrameHdrLen+len(buf)))
		}
		t.off = append(t.off, len(w))
		t.ts = append(t.ts, p.TsNs)
		if err := ingest.WriteRecord(&w, p.TsNs, 1, buf); err != nil {
			return nil, err
		}
	}
	t.off = append(t.off, len(w))
	n := len(t.ts) / batchFrames * batchFrames
	if n == 0 {
		return nil, fmt.Errorf("generator produced %d packets, need at least %d", len(t.ts), batchFrames)
	}
	t.off, t.ts, t.wire = t.off[:n+1], t.ts[:n], w[:t.off[n]:t.off[n]]
	t.lapNs = t.ts[n-1] + 1000
	return t, nil
}

type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) { *w = append(*w, p...); return len(p), nil }

// binder is the binding surface Runtime and ShardedRuntime share, so the
// serial reference and the sharded datapath are configured by one function.
type binder interface {
	BindWindow(stage, slot int, m stat4p4.Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error)
	BindFreqDst(stage, slot int, m stat4p4.Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error)
	BindFlowSrc(stage, slot int, m stat4p4.Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error)
}

// build emits the daemon's program for the workload: cmd/stat4d's sizing,
// grown by the flow plane when -flow-table is set.
func (w *workload) build() *stat4p4.Library {
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	if w.flowBuckets > 0 {
		opts.FlowTable = true
		opts.FlowTableSize = w.flowBuckets
	}
	return stat4p4.Build(opts)
}

// bind installs the workload's -track with the daemon's flag defaults.
func (w *workload) bind(b binder) error {
	var err error
	switch w.track {
	case "window":
		_, err = b.BindWindow(0, 0, stat4p4.AllIPv4(), 23, 100, w.k)
	case "dst24":
		_, err = b.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, uint64(packet.ParseIP4(10, 0, 0, 0))>>8, 256, 1, 1, w.k)
	case "flow":
		_, err = b.BindFlowSrc(0, 0, stat4p4.AllIPv4(), 0, 23, 4, 0, w.k)
	default:
		err = fmt.Errorf("unknown track %q", w.track)
	}
	return err
}

// datapath constructs the bound sharded runtime exactly as stat4d does.
func (w *workload) datapath() (*stat4p4.ShardedRuntime, error) {
	sr, err := stat4p4.NewShardedRuntime(w.build(), w.shards)
	if err != nil {
		return nil, err
	}
	if err := w.bind(sr); err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}
