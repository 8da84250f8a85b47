package stat4p4

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/telemetry"
)

// This file is the litmus of "a measure is one description": a fourth
// measure, defined here and named by no other file, whose row sets every
// column, and a test that passes it through every reader of the tables.
//
// The measure counts a slot's packets into one cell per slot and keeps the
// slot's moments over that one count (so a merged Moments read needs the
// row's counts), doubles the count into a recomputed register, remembers
// the last key per replica, and raises its own digest when the count reaches
// the binding's threshold. The key is ipv4.src >> shift − base.
//
// Deleting any one column from the row fails the subtest named after it
// (a nil function column fails by panicking there):
//
//	off    measure name, on, views, scratch
//	check  measure sizing, declare, block
//	emit   measure size, kinds; kind name, action, params, noStrict
//	fit    measure recomputed
//	read   measure kind, counts; kind view; view read, merge, body
//	merge  measure rebuild; kind note
//	alert  measure digest; digest id, kind, fields
//	tracks measure tracks, trackBinding; track name, kind, shift, based,
//	       sampled
//	views  view name
//	metrics view metrics
//
// The one column the row leaves at zero is the kind's perShard: the row's
// state merges.

// litmusOn is the row's switch: the test owns it, where a production row
// points into Options.
var litmusOn bool

const (
	kindLitmus   = 6
	digestLitmus = 4

	regLitCnt   = "lit.cnt"   // per-slot packets
	regLitTwice = "lit.twice" // 2·lit.cnt, rebuilt after a merge
	regLitLast  = "lit.last"  // the last key a replica saw
)

var litmusMeasure = &measure{
	name: "Litmus",
	on:   func(*Options) *bool { return &litmusOn },
	size: func(*Options) int { return 1 },
	sizing: func(o *Options) error {
		if o.CellWidth < 16 {
			return fmt.Errorf("stat4p4: Litmus needs cells of 16 bits or more, have %d", o.CellWidth)
		}
		return nil
	},
	kind:       kindLitmus,
	declare:    (*Library).declareLitmus,
	block:      (*Library).litmusBlock,
	recomputed: []string{regLitTwice},
	rebuild: func(l *Library, snap *p4.Snapshot, slot int) {
		snap.Registers[regLitTwice][slot] = 2 * snap.Registers[regLitCnt][slot] & l.cellMask()
	},
	// The slot's one frequency is its count.
	counts: func(rt *Runtime, slot int) []uint64 { return []uint64{litmusView.merged(rt, slot).Count} },
	digest: &digestLayout{digestLitmus, "litmus", []string{"key", "count"}},
	views:  []AnyView{litmusView},
	kinds: []kind{{name: "litmus-src", action: "bind_lit_src", view: litmusView, noStrict: true,
		params: []param{pShift, pBase, pThreshold}, note: noteMedian}},
	scratch: func(f fieldFunc) { litmusFields(f) },
	tracks:  []track{{name: "litmus", kind: "litmus-src", shift: 8, based: true, sampled: true}},
	trackBinding: func(_ *Library, p TrackParams, _ *Binding) error {
		if p.K > 1<<16 {
			return fmt.Errorf("stat4p4: litmus threshold %d above 2^16", p.K)
		}
		return nil
	},
}

func pThreshold(_ *Options, b *Binding) (uint64, error) {
	if b.K == 0 {
		return 0, fmt.Errorf("stat4p4: litmus threshold must be ≥ 1")
	}
	return b.K, nil
}

type litmusScratch struct{ key, thr p4.FieldID }

func litmusFields(f fieldFunc) litmusScratch {
	return litmusScratch{f("m.litkey", 64), f("m.litthr", 64)}
}

func (l *Library) declareLitmus() {
	f, s, std := &l.f, litmusFields(l.field), l.Std
	w, slot, cell := l.Opts.CellWidth, p4.F(f.slotid), p4.F(f.base)
	l.Prog.AddRegister(regLitCnt, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(regLitCnt, p4.MergeSum)
	l.Prog.AddRegister(regLitTwice, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(regLitTwice, p4.MergeDerived)
	l.Prog.AddRegister(regLitLast, l.Opts.Slots, 64)
	l.Prog.SetRegisterMerge(regLitLast, p4.MergeDerived)
	l.Prog.SetMergeWhy(regLitLast, "the last key one replica saw; replica-local")

	// bind_lit_src(cell, slot, shift, base, threshold)
	l.Prog.AddAction(p4.NewAction("bind_lit_src", 5,
		p4.Mov(f.base, p4.P(0)),
		p4.Mov(f.slotid, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindLitmus)),
		p4.Shr(f.t1, p4.F(std.IPv4Src), p4.P(2)),
		p4.Sub(s.key, p4.F(f.t1), p4.P(3)),
		p4.Mov(s.thr, p4.P(4)),
	))
	l.Prog.AddAction(p4.NewAction("lit_load", 0,
		p4.RegRead(f.f, regLitCnt, cell),
		p4.RegRead(f.n, RegN, slot),
		p4.RegRead(f.xsum, RegXsum, slot),
		p4.RegRead(f.xsumsq, RegXsumsq, slot),
	))
	l.Prog.AddAction(p4.NewAction("lit_accum", 0,
		p4.Add(f.xsum, p4.F(f.xsum), p4.C(1)),
		p4.RegWrite(RegXsum, slot, p4.F(f.xsum)),
		p4.Shl(f.t2, p4.F(f.f), p4.C(1)),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.Add(f.xsumsq, p4.F(f.xsumsq), p4.F(f.t2)),
		p4.RegWrite(RegXsumsq, slot, p4.F(f.xsumsq)),
		p4.Add(f.fnew, p4.F(f.f), p4.C(1)),
		p4.RegWrite(regLitCnt, cell, p4.F(f.fnew)),
		p4.Add(f.t2, p4.F(f.fnew), p4.F(f.fnew)),
		p4.RegWrite(regLitTwice, cell, p4.F(f.t2)),
		p4.RegWrite(regLitLast, cell, p4.F(s.key)),
	))
	l.Prog.AddAction(p4.NewAction("lit_alert", 0,
		p4.EmitDigest(digestLitmus, f.slotid, s.key, f.fnew, std.TsNs),
	))
}

func (l *Library) litmusBlock() []p4.Stmt {
	f := &l.f
	return []p4.Stmt{
		p4.Call("lit_load"),
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("lit_accum"),
		p4.If(p4.Cond{A: p4.F(f.fnew), Op: p4.CmpEq, B: p4.F(litmusFields(l.field).thr)}, p4.Call("lit_alert")),
	}
}

type litmusSnapshot struct {
	Count uint64 `json:"count"`
	Twice uint64 `json:"twice"`
}

var litmusView = &View[litmusSnapshot]{name: "litmus",
	read: func(s shard, slot int) litmusSnapshot {
		return litmusSnapshot{s.cell(regLitCnt, slot), s.cell(regLitTwice, slot)}
	},
	merge: func(rt *Runtime, _ int, shards []litmusSnapshot) (m litmusSnapshot) {
		for _, s := range shards {
			m.Count += s.Count
		}
		m.Twice = 2 * m.Count & rt.lib.cellMask()
		return m
	},
	body: func(slot, _ int, v litmusSnapshot) any {
		return struct {
			Slot int `json:"slot"`
			litmusSnapshot
		}{slot, v}
	},
	metrics: []metric[litmusSnapshot]{{"litmus_packets", "packets the litmus measure counted", false,
		func(v litmusSnapshot) uint64 { return v.Count }}},
}

// TestMeasureLitmus adds the litmus row to the measure table, rebuilds the
// kind and preset tables, and checks every reader finds it; the cleanup puts
// the three production rows back.
func TestMeasureLitmus(t *testing.T) {
	saved := measures
	measures = append(slices.Clip(measures), litmusMeasure)
	kinds, tracks = assemble()
	t.Cleanup(func() {
		measures, litmusOn = saved, false
		kinds, tracks = assemble()
	})
	opts := Options{Slots: 2, Size: 16, Stages: 1}
	const frames, threshold, key = 40, 5, 3
	litmus := Binding{Kind: "litmus-src", Slot: 1, Match: AllIPv4(), Shift: 8, Base: 10 << 16, K: threshold}
	// run binds the litmus on slot 1 of a fresh n-shard runtime and sends it
	// frames from 10.0.3.0/24 (key 3) on spread ports.
	run := func(t *testing.T, n int) *Runtime {
		rt, err := NewShardedRuntime(Build(opts), n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		if _, err := rt.Bind(litmus); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			src := packet.ParseIP4(10, 0, key, byte(i))
			rt.Sharded().ProcessFrame(uint64(i), 1, packet.NewUDPFrame(src, packet.ParseIP4(192, 168, 0, 1), uint16(1000+i), 80, 0).Serialize())
		}
		return rt
	}

	t.Run("off", func(t *testing.T) {
		rt := mustRuntime(t, opts)
		want := "stat4p4: library built without Options.Litmus"
		if _, err := Read(rt, litmusView, 0); err == nil || err.Error() != want {
			t.Errorf("Read without the row: %v, want %q", err, want)
		}
		if _, err := rt.Bind(litmus); err == nil || err.Error() != want {
			t.Errorf("Bind without the row: %v, want %q", err, want)
		}
	})
	litmusOn = true

	t.Run("check", func(t *testing.T) {
		narrow := Options{Slots: 2, Size: 16, Stages: 1, CellWidth: 8}
		if err := narrow.Check(); err == nil || !strings.Contains(err.Error(), "Litmus") {
			t.Errorf("Check of 8-bit cells: %v", err)
		}
		emitted := declared(Build(opts))
		for _, reg := range []string{regLitCnt, regLitTwice, regLitLast} {
			if !emitted[reg] {
				t.Errorf("Build emits no %s", reg)
			}
		}
	})

	t.Run("emit", func(t *testing.T) {
		lib := Build(opts)
		low, err := lib.Lower(litmus)
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 1, 8, 10 << 16, threshold}; low.Action != "bind_lit_src" || !reflect.DeepEqual(low.Args, want) {
			t.Errorf("lowered to %s%v, want bind_lit_src%v", low.Action, low.Args, want)
		}
		if acts := lib.Prog.Tables[len(lib.Prog.Tables)-1].ActionNames; !slices.Contains(acts, "bind_lit_src") {
			t.Errorf("bind0 offers %v", acts)
		}
		strict := Build(Options{Slots: 2, Size: 16, Stages: 1, Strict: true})
		if acts := strict.Prog.Tables[len(strict.Prog.Tables)-1].ActionNames; slices.Contains(acts, "bind_lit_src") {
			t.Errorf("a strict bind0 offers %v", acts)
		}
	})

	t.Run("fit", func(t *testing.T) {
		lib := Build(opts)
		rep, err := p4.AllocateStages(lib.Prog, p4.DefaultTargetModel())
		if err != nil || !rep.Fit {
			t.Errorf("pisa-3pass: %v %+v", err, rep)
		}
		if !slices.Contains(lib.RecomputedRegisters(), regLitTwice) {
			t.Errorf("recomputed %v", lib.RecomputedRegisters())
		}
		if law := p4.CheckMergeLaw(lib.Prog, lib.RecomputedRegisters()); len(law) != 0 {
			t.Errorf("merge law: %v", law)
		}
	})

	t.Run("read", func(t *testing.T) {
		one, two := run(t, 1), run(t, 2)
		want := litmusSnapshot{frames, 2 * frames}
		var shards litmusSnapshot
		for i := 0; i < 2; i++ {
			s := mustReadShard(t, two, litmusView, i, 1)
			if s.Count == 0 || s.Twice != 2*s.Count {
				t.Errorf("shard %d of 2 reads %+v", i, s)
			}
			shards.Count += s.Count
		}
		if got := mustRead(t, one, litmusView, 1); got != want || mustRead(t, two, litmusView, 1) != want || shards.Count != frames {
			t.Errorf("one shard %+v, two merged %+v, two by shard %d; want %+v", got, mustRead(t, two, litmusView, 1), shards.Count, want)
		}
		for _, rt := range []*Runtime{one, two} {
			v, merged := rt.SlotView(1)
			body, err := v.Body(rt, 1, 0)
			js, _ := json.Marshal(body)
			if v != litmusView || !merged || err != nil || string(js) != `{"slot":1,"count":40,"twice":80}` {
				t.Errorf("%d shards: slot 1 reads back through %v (merged %v): %s %v", rt.NumShards(), v, merged, js, err)
			}
		}
		if m1, m2 := mustRead(t, one, Moments, 1), mustRead(t, two, Moments, 1); m1 != m2 || m1.N != 1 || m1.Xsum != frames {
			t.Errorf("moments: one shard %+v, two merged %+v", m1, m2)
		}
	})

	t.Run("merge", func(t *testing.T) {
		one, two := run(t, 1), run(t, 2)
		serial := one.Switch().Snapshot()
		one.Library().CanonicalizeSnapshot(serial, one.FreqSlots())
		merged := two.MergedSnapshot()
		if !reflect.DeepEqual(merged.Registers, serial.Registers) || !reflect.DeepEqual(merged.Entries, serial.Entries) {
			t.Error("merged snapshot differs from the canonical serial one")
		}
		if got := merged.Registers[regLitTwice][1]; got != 2*frames {
			t.Errorf("canonical %s[1] = %d, want %d", regLitTwice, got, 2*frames)
		}
	})

	t.Run("alert", func(t *testing.T) {
		ds := drainAnomalies(run(t, 1).Sharded())
		if len(ds) != 1 {
			t.Fatalf("%d digests, want 1", len(ds))
		}
		a, err := DecodeDigest(ds[0])
		k, _ := a.Value("key")
		c, _ := a.Value("count")
		if err != nil || a.Kind != "litmus" || a.Slot != 1 || k != key || c != threshold {
			t.Errorf("decoded %+v, %v", a, err)
		}
		if got := AlertKind("litmus-src"); got != "litmus" {
			t.Errorf("AlertKind(litmus-src) = %q", got)
		}
	})

	t.Run("tracks", func(t *testing.T) {
		if !slices.Contains(Tracks(), "litmus") || FlagSampleShift("litmus", 6) != 6 {
			t.Errorf("tracks %v, sample shift %d", Tracks(), FlagSampleShift("litmus", 6))
		}
		litmusOn = false
		o, err := TrackOptions("litmus", TrackBase)
		if err != nil || o != TrackBase || !litmusOn {
			t.Errorf("TrackOptions: %+v %v, switch %v", o, err, litmusOn)
		}
		lib := Build(opts)
		b, err := lib.TrackBinding("litmus", TrackDefaults)
		if err != nil || b.Kind != "litmus-src" || b.Shift != 8 || b.Base != 10<<16 {
			t.Errorf("TrackBinding: %+v %v", b, err)
		}
		big := TrackDefaults
		big.K = 1 << 17
		if _, err := lib.TrackBinding("window", big); err == nil {
			t.Error("TrackBinding took a litmus threshold above 2^16")
		}
	})

	t.Run("views", func(t *testing.T) {
		if !slices.Contains(Views(), AnyView(litmusView)) {
			t.Errorf("Views() lists no litmus row")
		}
	})

	t.Run("metrics", func(t *testing.T) {
		reg := telemetry.NewRegistry("stat4")
		RegisterMetrics(run(t, 2), reg)
		var b strings.Builder
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("stat4_litmus_packets %d\n", frames); !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	})
}
