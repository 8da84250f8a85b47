package p4

import (
	"fmt"
	"math/rand"
	"testing"

	"stat4/internal/packet"
)

// buildBreakEvenProgram approximates the daemon's per-frame work, a stat4p4
// freq-dst slot (this package cannot import the emitter; the root package's
// BenchmarkShardedProcessBatch runs the real one, within about 10 % of this
// at one shard): an LPM bind table whose action, for the destination
// and for the source /24, hashes the prefix into a 256-cell counter, bumps
// it, and folds the new count into running N / Σf / Σf² registers.
func buildBreakEvenProgram() (*Program, StdFields) {
	p := NewProgram("bench-break-even")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 32)
	f := p.AddField("meta.f", 64)
	acc := p.AddField("meta.acc", 64)
	sq := p.AddField("meta.sq", 64)

	var ops []Op
	for i, key := range []FieldID{std.IPv4Dst, std.IPv4Src} {
		counters, moments := fmt.Sprintf("counters%d", i), fmt.Sprintf("moments%d", i)
		p.AddRegister(counters, 256, 64)
		p.AddRegister(moments, 8, 64) // one cache line: replicas must not share one
		ops = append(ops,
			Shr(idx, F(key), C(8)),
			Hash(idx, 1, F(idx), 255),
			RegRead(f, counters, F(idx)),
			Add(f, F(f), C(1)),
			RegWrite(counters, F(idx), F(f)),
			RegRead(acc, moments, C(0)),
			Add(acc, F(acc), C(1)),
			RegWrite(moments, C(0), F(acc)),
			RegRead(acc, moments, C(1)),
			Add(acc, F(acc), F(f)),
			RegWrite(moments, C(1), F(acc)),
			Mul(sq, F(f), F(f)),
			RegRead(acc, moments, C(2)),
			Add(acc, F(acc), F(sq)),
			RegWrite(moments, C(2), F(acc)),
		)
	}
	p.AddAction(NewAction("count", 0, ops...))
	p.AddAction(NewAction("noop", 0))
	p.AddTable(&TableDef{
		Name:          "bind",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchLPM}},
		ActionNames:   []string{"count", "noop"},
		DefaultAction: "noop",
		MaxEntries:    32,
	})
	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Apply("bind"),
		),
	}
	return p, std
}

// BenchmarkShardedBreakEven is the break-even table in code: wall
// nanoseconds per frame of back-to-back ProcessBatch(batch, nil) calls at
// 8 … 8 192 frames per batch, for one shard, two shards with every partition
// on the caller, and two shards forked to the worker. Where the last two rows
// cross is where a fork starts paying for its wake-ups — on a host whose
// second vCPU is a core of its own; on the reference VM they never cross,
// and ForkFrames cites the end-to-end pairs instead.
func BenchmarkShardedBreakEven(b *testing.B) {
	const maxFrames = 8192
	rng := rand.New(rand.NewSource(11))
	frames := make([]FrameIn, maxFrames)
	for i := range frames {
		src := packet.ParseIP4(192, 168, byte(rng.Intn(8)), byte(rng.Intn(250)))
		dst := packet.ParseIP4(10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(200)))
		frames[i] = FrameIn{TsNs: uint64(i), Port: 1, Data: packet.NewUDPFrame(src, dst, uint16(1024+rng.Intn(4096)), 80, 10).Serialize()}
	}
	for _, row := range []struct {
		name       string
		shards     int
		forkFrames int
	}{
		{"1shard", 1, 0},
		{"2shards-inline", 2, maxFrames + 1},
		{"2shards-fork", 2, 0},
	} {
		for _, size := range []int{8, 32, 128, 256, 512, 1024, 2048, 4096, 8192} {
			b.Run(fmt.Sprintf("%s/frames=%d", row.name, size), func(b *testing.B) {
				prog, std := buildBreakEvenProgram()
				ss, err := NewShardedSwitch(prog, std, row.shards, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer ss.Close()
				ss.forkFrames = row.forkFrames
				if _, err := ss.InsertEntry("bind",
					[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}}, 0, "count", nil); err != nil {
					b.Fatal(err)
				}
				batch := frames[:size]
				ss.ProcessBatch(batch, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ss.ProcessBatch(batch, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/frame")
			})
		}
	}
}
