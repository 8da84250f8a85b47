package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// This file emits the probabilistic-recirculation heavy-hitter path. The
// main pass hashes the flow key folded with the ingress timestamp and
// compares k well-mixed bits against zero — a 2^-k coin flip per packet —
// and raises the recirculation flag on heads.
// The single extra pass (internal/p4's structurally-bounded recirculation)
// promotes the sampled key into a small exact-count candidate table with
// 2-way hash probing: a flow sending n packets is promoted with probability
// 1 − (1 − 2^-k)^n, so heavy flows enter the table almost surely while mice
// rarely spend the recirculation budget. Candidate counts tally promotions,
// each representing ≈ 2^k packets of the flow.
//
// The candidate tables are replica-local (shards sample and claim
// independently), so the registers are MergeDerived-with-why: merged
// snapshots zero them and the controller merges candidates by key instead
// (the HeavyHitters view), keeping the byte-identity contract trivial.

// Heavy-hitter register names.
const (
	RegHHKeys   = "stat.hhkeys" // candidate flow keys, Slots×HHTableSize
	RegHHCounts = "stat.hhcnt"  // promotion counts; 0 marks an empty bucket
	RegHHRej    = "stat.hhrej"  // per-slot rejected promotions (table full)
)

const kindHH = 4

// DigestHeavyHitter is the digest ID emitted when the recirculation pass
// promotes a new candidate flow into the heavy-hitter table. Payload: the
// flow key.
const DigestHeavyHitter = 3

// hhMeasure is the measure row of Options.HeavyHitter.
var hhMeasure = &measure{
	name: "HeavyHitter",
	on:   func(o *Options) *bool { return &o.HeavyHitter },
	size: func(o *Options) int { return o.HHTableSize },
	sizing: func(o *Options) error {
		if o.HHTableSize == 0 {
			o.HHTableSize = 16
		}
		if o.HHTableSize < 2 || o.HHTableSize&(o.HHTableSize-1) != 0 {
			return fmt.Errorf("stat4p4: HHTableSize must be a power of two ≥ 2, have %d", o.HHTableSize)
		}
		return nil
	},
	kind:    kindHH,
	declare: (*Library).declareHeavyHitter,
	block:   (*Library).hhBlock,
	digest:  &digestLayout{DigestHeavyHitter, "heavy-hitter", []string{"key"}},
	views:   []AnyView{HeavyHitters},
	kinds: []kind{
		{name: "hh-dst", action: "bind_hh_dst", view: HeavyHitters, params: []param{pShift, pSampleMask}},
		{name: "hh-src", action: "bind_hh_src", view: HeavyHitters, params: []param{pShift, pSampleMask}},
	},
	scratch: func(f fieldFunc) { hhFields(f) },
	tracks:  []track{{name: "hh", kind: "hh-src", sampled: true}},
}

// hhScratch is the row's scratch: the flow key and table coordinates ride the
// recirculation trip, so no later binding stage may reuse them.
type hhScratch struct{ hhkey, hhbase, hhslot, hhgate, recirc p4.FieldID }

func hhFields(f fieldFunc) hhScratch {
	return hhScratch{f("m.hhkey", 64), f("m.hhbase", 64), f("m.hhslot", 64), f("m.hhgate", 64), f("m.recirc", 1)}
}

// declareHeavyHitter adds the heavy-hitter registers, binding actions, the
// main-pass sampling block and the recirculation promotion pass.
func (l *Library) declareHeavyHitter() {
	f, s := &l.f, hhFields(l.field)
	std := l.Std
	cells := l.Opts.Slots * l.Opts.HHTableSize
	w := l.Opts.CellWidth

	l.Prog.AddRegister(RegHHKeys, cells, 64)
	l.Prog.SetRegisterMerge(RegHHKeys, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegHHKeys,
		"candidate-table keys are replica-local: shards sample and claim buckets independently; the controller merges candidates by key")
	l.Prog.AddRegister(RegHHCounts, cells, w)
	l.Prog.SetRegisterMerge(RegHHCounts, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegHHCounts,
		"promotion counts keyed by the replica-local candidate table; summed per key by the controller, never cell-wise")
	l.Prog.AddRegister(RegHHRej, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(RegHHRej, p4.MergeSum)

	// bind_hh_src(hhBase, slot, shift, sampleMask): key = ipv4.src >> shift;
	// recirculate when hash(key + ts) & sampleMask == 0 (sampleMask =
	// 2^k − 1). The hh* metadata fields are deliberately private to this
	// mode: they must survive every later binding stage to reach the
	// recirculation pass intact.
	common := []p4.Op{
		p4.Mov(s.hhbase, p4.P(0)),
		p4.Mov(s.hhslot, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindHH)),
	}
	// The coin flip must be per PACKET, not per key: hashing the key alone
	// deterministically partitions the key space, and an elephant whose key
	// lands in the unsampled 1 − 2^-k never recirculates at any rate. Folding
	// the ingress timestamp into the hash input makes each packet an
	// independent trial. The engine's multiply-shift hash also mixes its HIGH
	// bits well and its low bits barely at all (the product's low bits are a
	// bijection of the input's), so the gate takes the high word before
	// masking.
	gate := func() []p4.Op {
		return []p4.Op{
			p4.Add(s.hhgate, p4.F(s.hhkey), p4.F(std.TsNs)),
			p4.Hash(s.hhgate, 0, p4.F(s.hhgate), ^uint64(0)),
			p4.Shr(s.hhgate, p4.F(s.hhgate), p4.C(32)),
			p4.And(s.hhgate, p4.F(s.hhgate), p4.P(3)),
		}
	}
	l.Prog.AddAction(p4.NewAction("bind_hh_src", 4, append(append(append([]p4.Op{}, common...),
		p4.Shr(s.hhkey, p4.F(std.IPv4Src), p4.P(2))),
		gate()...)...))
	// bind_hh_dst(hhBase, slot, shift, sampleMask): per-destination heavy
	// hitters — the elephant-sink view.
	l.Prog.AddAction(p4.NewAction("bind_hh_dst", 4, append(append(append([]p4.Op{}, common...),
		p4.Shr(s.hhkey, p4.F(std.IPv4Dst), p4.P(2))),
		gate()...)...))

	add := func(name string, ops ...p4.Op) {
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}

	// hh_mark: request the single extra pass.
	add("hh_mark", p4.Mov(s.recirc, p4.C(1)))

	// --- recirculation pass actions --------------------------------------

	tmask := uint64(l.Opts.HHTableSize - 1)
	// hh_probe: both candidate buckets; a zero count marks an empty bucket
	// (claims write count 1 first, so an occupied bucket is never zero).
	// Hash functions 1 and 2 are distinct from the sampling hash 0.
	add("hh_probe",
		p4.Hash(f.h1, 1, p4.F(s.hhkey), ^uint64(0)),
		p4.Shr(f.h1, p4.F(f.h1), p4.C(32)),
		p4.And(f.h1, p4.F(f.h1), p4.C(tmask)),
		p4.Add(f.h1, p4.F(s.hhbase), p4.F(f.h1)),
		p4.Hash(f.h2, 2, p4.F(s.hhkey), ^uint64(0)),
		p4.Shr(f.h2, p4.F(f.h2), p4.C(32)),
		p4.And(f.h2, p4.F(f.h2), p4.C(tmask)),
		p4.Add(f.h2, p4.F(s.hhbase), p4.F(f.h2)),
		p4.RegRead(f.k1, RegHHKeys, p4.F(f.h1)),
		p4.RegRead(f.u1, RegHHCounts, p4.F(f.h1)),
		p4.RegRead(f.k2, RegHHKeys, p4.F(f.h2)),
		p4.RegRead(f.u2, RegHHCounts, p4.F(f.h2)),
	)
	add("hh_claim1",
		p4.RegWrite(RegHHKeys, p4.F(f.h1), p4.F(s.hhkey)),
		p4.RegWrite(RegHHCounts, p4.F(f.h1), p4.C(1)),
		p4.EmitDigest(DigestHeavyHitter, s.hhslot, s.hhkey, std.TsNs),
	)
	add("hh_take1",
		p4.Add(f.u1, p4.F(f.u1), p4.C(1)),
		p4.RegWrite(RegHHCounts, p4.F(f.h1), p4.F(f.u1)),
	)
	add("hh_claim2",
		p4.RegWrite(RegHHKeys, p4.F(f.h2), p4.F(s.hhkey)),
		p4.RegWrite(RegHHCounts, p4.F(f.h2), p4.C(1)),
		p4.EmitDigest(DigestHeavyHitter, s.hhslot, s.hhkey, std.TsNs),
	)
	add("hh_take2",
		p4.Add(f.u2, p4.F(f.u2), p4.C(1)),
		p4.RegWrite(RegHHCounts, p4.F(f.h2), p4.F(f.u2)),
	)
	add("hh_reject",
		p4.RegRead(f.t2, RegHHRej, p4.F(s.hhslot)),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.RegWrite(RegHHRej, p4.F(s.hhslot), p4.F(f.t2)),
	)

	eqf := func(a, b p4.FieldID) p4.Cond { return p4.Cond{A: p4.F(a), Op: p4.CmpEq, B: p4.F(b)} }
	l.Prog.SetRecirc(s.recirc, []p4.Stmt{
		p4.Call("hh_probe"),
		p4.If(eq(f.u1, 0),
			p4.Call("hh_claim1"),
		).WithElse(
			p4.If(eqf(f.k1, s.hhkey),
				p4.Call("hh_take1"),
			).WithElse(
				p4.If(eq(f.u2, 0),
					p4.Call("hh_claim2"),
				).WithElse(
					p4.If(eqf(f.k2, s.hhkey),
						p4.Call("hh_take2"),
					).WithElse(
						p4.Call("hh_reject"),
					),
				),
			),
		),
	})
}

// hhBlock is the main-pass side: the bind action already hashed the key and
// masked the sample bits; on a zero gate the packet wins the 2^-k coin flip
// and requests the promotion pass.
func (l *Library) hhBlock() []p4.Stmt {
	return []p4.Stmt{
		p4.If(eq(hhFields(l.field).hhgate, 0), p4.Call("hh_mark")),
	}
}

// HeavyHitters is a slot's candidate table and rejected promotions. Merged,
// candidates add by key and rejections sum.
var HeavyHitters = &View[HHSnapshot]{name: "heavyhitters",
	read: func(s shard, slot int) HHSnapshot {
		return HHSnapshot{s.cell(RegHHRej, slot), s.table(slot, s.lib.Opts.HHTableSize, RegHHKeys, RegHHCounts, "")}
	},
	merge: func(_ *Runtime, _ int, shards []HHSnapshot) (m HHSnapshot) {
		for _, s := range shards {
			m.Rejected += s.Rejected
			m.Entries = append(m.Entries, s.Entries...)
		}
		m.Entries = byKey(m.Entries)
		return m
	},
	body: func(slot, n int, h HHSnapshot) any {
		h.Entries = head(h.Entries, n)
		return struct {
			Slot int `json:"slot"`
			HHSnapshot
		}{slot, h}
	}}

// HHSnapshot is a slot's candidate table, heaviest first, and its count of
// promotions rejected with both candidate buckets taken.
type HHSnapshot struct {
	Rejected uint64  `json:"rejected"`
	Entries  []Entry `json:"entries"`
}
