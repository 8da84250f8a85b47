package stat4p4

import (
	"errors"
	"fmt"
	"math"

	"stat4/internal/intstat"
	"stat4/internal/p4"
)

// This file emits the integer-only normalized-entropy measure over a tracked
// frequency distribution, the in-switch counterpart of core.Entropy. The
// datapath maintains
//
//	c_i = f_i · log2fix(f_i)   (one cell per counter cell, RegEntCell)
//	S   = Σ c_i                (one scalar per slot, RegEntSum)
//
// incrementally: each observation reads the cell's old contribution, computes
// the new one from the just-incremented counter, and folds the difference
// into S. All arithmetic wraps mod the cell width, so the incremental S is
// bit-identical to rederiving Σ f·log2fix(f) from the final counters — which
// is exactly how CanonicalizeSnapshot rebuilds both registers from merged
// counters, making sharded merges byte-identical to serial.
//
// The fixed-point log2 is intstat.Log2Fixed emitted as a nested-if binary
// search on the operand's MSB with one leaf action per exponent (the Figure 2
// square-root idiom): at leaf e every shift amount is a compile-time
// constant, so the tree is legal on shift-constant targets. The entropy
// detection itself is division-free: with T = Σf observations,
//
//	H·T·2^frac = T·log2fix(T) − S,
//
// and the collapse check H < h0 becomes T·log2fix(T) − S < h0·T, a
// multiply-and-compare evaluated every checkEvery-th observation.

// Entropy-mode register names.
const (
	RegEntCell = "stat.entcell" // c_i = f_i·log2fix(f_i), Slots×Size cells
	RegEntSum  = "stat.entsum"  // per-slot S = Σ c_i
)

const kindEntropy = 3

// DigestEntropy is the digest ID of entropy-collapse alerts. Payload: total
// observations T, scaled entropy H·T, scaled threshold h0·T.
const DigestEntropy = 2

// entropyMeasure is the measure row of Options.Entropy.
var entropyMeasure = &measure{
	name: "Entropy",
	on:   func(o *Options) *bool { return &o.Entropy },
	sizing: func(o *Options) error {
		if o.Strict {
			return errors.New("stat4p4: Entropy needs runtime multiplication; incompatible with Strict")
		}
		if o.EntropyFrac == 0 {
			o.EntropyFrac = 16
		}
		if o.EntropyFrac > intstat.Log2MaxFrac {
			return fmt.Errorf("stat4p4: EntropyFrac %d exceeds Log2MaxFrac %d", o.EntropyFrac, intstat.Log2MaxFrac)
		}
		return nil
	},
	kind:    kindEntropy,
	declare: (*Library).declareEntropy,
	block:   (*Library).entropyBlock,
	// Both registers are pure functions of the counters, rebuilt
	// cell-for-cell after a merge.
	recomputed: []string{RegEntCell, RegEntSum},
	rebuild:    (*Library).rebuildEntropy,
	digest:     &digestLayout{DigestEntropy, "entropy", []string{"total", "scaled_entropy", "scaled_threshold"}},
	views:      []AnyView{Entropy},
	kinds: []kind{
		{name: "entropy-dst", action: "bind_ent_dst", view: Entropy, params: []param{pShift, pBase, pSize, pH0, pCheckMask}, note: noteMedian},
		{name: "entropy-src", action: "bind_ent_src", view: Entropy, params: []param{pShift, pBase, pSize, pH0, pCheckMask}, note: noteMedian},
	},
	scratch: func(f fieldFunc) { entFields(f) },
	tracks:  []track{{name: "entropy", kind: "entropy-dst", shift: 8, based: true}},
	// Every track carries the threshold, converted and range-checked.
	trackBinding: func(l *Library, p TrackParams, b *Binding) (err error) {
		b.H0, err = l.entropyH0(p.H0Bits)
		b.CheckEvery = p.CheckEvery
		return err
	},
}

func noteMedian(b *Binding) SlotBinding          { return SlotBinding{Slot: b.Slot, PA: 1, PB: 1} }
func pH0(_ *Options, b *Binding) (uint64, error) { return b.H0, nil }

// pCheckMask turns the check cadence into the mask the action gates on:
// the check runs when T & (checkEvery−1) == 0.
func pCheckMask(_ *Options, b *Binding) (uint64, error) {
	every := b.CheckEvery
	if every == 0 {
		every = 1
	}
	if every&(every-1) != 0 {
		return 0, fmt.Errorf("stat4p4: checkEvery %d is not a power of two", every)
	}
	return every - 1, nil
}

// entScratch is the row's scratch: the log2 outputs, the contribution fold
// and the collapse check's operands.
type entScratch struct{ lf, lt, ec, ecold, es, h0, entchk, entg, enta, entb, ht p4.FieldID }

func entFields(f fieldFunc) entScratch {
	return entScratch{f("m.lf", 64), f("m.lt", 64), f("m.ec", 64), f("m.ec_old", 64), f("m.es", 64), f("m.h0", 64),
		f("m.entchk", 64), f("m.entg", 64), f("m.enta", 64), f("m.entb", 64), f("m.ht", 64)}
}

// declareEntropy adds the entropy registers, binding actions and update
// actions to the program.
func (l *Library) declareEntropy() {
	f, s := &l.f, entFields(l.field)
	std := l.Std
	cells := l.Opts.Slots * l.Opts.Size
	w := l.Opts.CellWidth
	// Both registers are pure functions of the counter array, recomputed
	// cell-for-cell by CanonicalizeSnapshot — they are in the recomputed
	// set, not the MergeWhy set.
	l.Prog.AddRegister(RegEntCell, cells, w)
	l.Prog.SetRegisterMerge(RegEntCell, p4.MergeDerived)
	l.Prog.AddRegister(RegEntSum, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(RegEntSum, p4.MergeDerived)

	common := []p4.Op{
		p4.Mov(f.base, p4.P(0)),
		p4.Mov(f.slotid, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindEntropy)),
	}
	entTail := []p4.Op{
		p4.Mov(f.size, p4.P(4)),
		p4.Mov(s.h0, p4.P(5)),
		p4.Mov(s.entchk, p4.P(6)),
	}
	// bind_ent_dst(slotBase, slot, shift, base, size, h0, chkmask):
	// value = (ipv4.dst >> shift) − base, wrapping like the freq binds so
	// out-of-range values fail the val < size guard instead of aliasing.
	// h0 = threshold·2^EntropyFrac (0 disables the check); chkmask gates the
	// check to observations where T & chkmask == 0.
	l.Prog.AddAction(p4.NewAction("bind_ent_dst", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.t1, p4.F(std.IPv4Dst), p4.P(2)),
		p4.Sub(f.val, p4.F(f.t1), p4.P(3))),
		entTail...)...))
	// bind_ent_src(slotBase, slot, shift, base, size, h0, chkmask): source
	// entropy — the distribution that collapses under a single-source flood
	// and explodes under a spoofed-source DDoS.
	l.Prog.AddAction(p4.NewAction("bind_ent_src", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.t1, p4.F(std.IPv4Src), p4.P(2)),
		p4.Sub(f.val, p4.F(f.t1), p4.P(3))),
		entTail...)...))

	add := func(name string, ops ...p4.Op) {
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}
	slot := p4.F(f.slotid)

	// ent_store: fold the contribution delta into S. The explicit cell-width
	// mask on c_new keeps the field-side arithmetic identical to what the
	// register stores, so the incremental S telescopes to the rederived one
	// at any cell width, not just 64.
	add("ent_store",
		p4.RegRead(s.ecold, RegEntCell, p4.F(f.idx)),
		p4.Mul(s.ec, p4.F(f.fnew), p4.F(s.lf)),
		p4.And(s.ec, p4.F(s.ec), p4.C(l.cellMask())),
		p4.RegWrite(RegEntCell, p4.F(f.idx), p4.F(s.ec)),
		p4.RegRead(s.es, RegEntSum, slot),
		p4.Add(s.es, p4.F(s.es), p4.F(s.ec)),
		p4.Sub(s.es, p4.F(s.es), p4.F(s.ecold)),
		p4.RegWrite(RegEntSum, slot, p4.F(s.es)),
	)
	// ent_chkgate: the check runs when T & chkmask == 0.
	add("ent_chkgate",
		p4.And(s.entg, p4.F(f.xsum), p4.F(s.entchk)),
	)
	// ent_thr: enta = T·log2fix(T), ht = enta − S (the scaled H·T, clamped),
	// entb = h0·T.
	add("ent_thr",
		p4.Mul(s.enta, p4.F(f.xsum), p4.F(s.lt)),
		p4.SatSub(s.ht, p4.F(s.enta), p4.F(s.es)),
		p4.Mul(s.entb, p4.F(s.h0), p4.F(f.xsum)),
	)
	add("ent_alert",
		p4.EmitDigest(DigestEntropy, f.slotid, f.xsum, s.ht, s.entb, std.TsNs),
	)
}

// entropyBlock is the per-packet entropy update of an in-range value: the
// shared counter/moment accumulation, the log2 tree on the fresh counter, the
// contribution fold, and the periodic collapse check.
func (l *Library) entropyBlock() []p4.Stmt {
	f, s := &l.f, entFields(l.field)
	stmts := []p4.Stmt{
		p4.Call("freq_load"),
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("freq_accum"),
	}
	stmts = append(stmts, l.log2Tree(f.fnew, s.lf)...)
	stmts = append(stmts, p4.Call("ent_store"))

	check := l.log2Tree(f.xsum, s.lt)
	check = append(check,
		p4.Call("ent_thr"),
		p4.If(flt(s.ht, s.entb), p4.Call("ent_alert")),
	)
	stmts = append(stmts,
		p4.If(ne(s.h0, 0),
			p4.Call("ent_chkgate"),
			p4.If(eq(s.entg, 0), check...),
		),
	)
	return []p4.Stmt{p4.If(flt(f.val, f.size), stmts...)}
}

// log2Tree emits dst = intstat.Log2Fixed(src, EntropyFrac) as an MSB tree
// with one constant-shift leaf per exponent, declaring the 64 leaves plus
// the zero case for a (src, dst) pair on first use — bit-identical to the
// library function at every input, including the src = 0 and src = 1
// conventions. Leaf e computes (e << frac) | fraction-bits with the exact
// Log2Fixed shift layout; at EntropyFrac ≤ Log2MaxFrac no uint64 exponent can
// saturate, so the leaves need no sentinel branch.
func (l *Library) log2Tree(src, dst p4.FieldID) []p4.Stmt {
	prefix := fmt.Sprintf("lg_%d_%d", src, dst)
	if !l.leaves[prefix] {
		l.leaves[prefix] = true
		fr := l.Opts.EntropyFrac
		l.Prog.AddAction(p4.NewAction(prefix+"_zero", 0, p4.Mov(dst, p4.C(0))))
		// e = 0 (src == 1): log2 is exactly 0 at every precision.
		l.Prog.AddAction(p4.NewAction(prefix+"_0", 0, p4.Mov(dst, p4.C(0))))
		for e := 1; e <= 63; e++ {
			ops := []p4.Op{
				// mantissa: clear the MSB.
				p4.Xor(dst, p4.F(src), p4.C(1<<uint(e))),
			}
			// Align the mantissa to the fractional width; the aligned bits
			// are strictly below the e << frac integer part, so Or combines
			// exactly.
			if uint(e) >= fr {
				ops = append(ops, p4.Shr(dst, p4.F(dst), p4.C(uint64(uint(e)-fr))))
			} else {
				ops = append(ops, p4.Shl(dst, p4.F(dst), p4.C(uint64(fr-uint(e)))))
			}
			ops = append(ops, p4.Or(dst, p4.F(dst), p4.C(uint64(e)<<fr)))
			l.Prog.AddAction(p4.NewAction(fmt.Sprintf("%s_%d", prefix, e), 0, ops...))
		}
	}
	return []p4.Stmt{
		p4.If(eq(src, 0),
			p4.Call(prefix+"_zero"),
		).WithElse(
			msbTree(src, 0, 63, prefix),
		),
	}
}

// entropySum is S = Σc & mask with c = (f·log2fix(f)) & mask over a slot's
// counters: the emitted arithmetic, to which the incremental datapath
// telescopes, so a rebuilt slot lands on the bytes a serial switch holds.
// Each c goes to cells when cells is not nil.
func (l *Library) entropySum(counters, cells []uint64) uint64 {
	mask := l.cellMask()
	var sum uint64
	for i, f := range counters {
		c := (f * intstat.Log2Fixed(f, l.Opts.EntropyFrac)) & mask
		if cells != nil {
			cells[i] = c
		}
		sum += c
	}
	return sum & mask
}

// rebuildEntropy recomputes a slot's contribution cells and their sum in a
// canonical snapshot from the slot's counters.
func (l *Library) rebuildEntropy(snap *p4.Snapshot, slot int) {
	lo, hi := slot*l.Opts.Size, (slot+1)*l.Opts.Size
	snap.Registers[RegEntSum][slot] = l.entropySum(snap.Registers[RegCounters][lo:hi], snap.Registers[RegEntCell][lo:hi])
}

// Entropy is a slot's entropy registers in the scaled form. Merged, S is
// rederived from the merged counters.
var Entropy = &View[EntropySnapshot]{name: "entropy",
	read: func(s shard, slot int) EntropySnapshot {
		return s.lib.entropySnapshot(s.cell(RegXsum, slot), s.cell(RegEntSum, slot))
	},
	merge: func(rt *Runtime, slot int, _ []EntropySnapshot) EntropySnapshot {
		counters := Counters.merged(rt, slot)
		var total uint64
		for _, f := range counters {
			total += f
		}
		return rt.lib.entropySnapshot(total&rt.lib.cellMask(), rt.lib.entropySum(counters, nil))
	},
	body: func(slot, _ int, e EntropySnapshot) any {
		return struct {
			Slot int `json:"slot"`
			EntropySnapshot
		}{slot, e}
	}}

// EntropySnapshot is one slot's entropy state: Total is T, the observations
// (the slot's Xsum); Sum is S = Σ f·log2fix(f) masked to the cell width;
// ScaledBits is T·log2fix(T) − S = H·T·2^frac, the division-free form the
// in-switch check compares against h0·T; Bits is ScaledBits/(T·2^frac), the
// entropy in bits in floating point for display only — every decision path
// stays integer.
type EntropySnapshot struct {
	Total      uint64  `json:"total"`
	Sum        uint64  `json:"sum"`
	ScaledBits uint64  `json:"scaled_bits"`
	Bits       float64 `json:"bits"`
}

// entropySnapshot derives the scaled form with the same intstat arithmetic
// the datapath uses.
func (l *Library) entropySnapshot(total, sum uint64) EntropySnapshot {
	snap := EntropySnapshot{Total: total, Sum: sum}
	if total == 0 {
		return snap
	}
	snap.ScaledBits = intstat.SatSub(total*intstat.Log2Fixed(total, l.Opts.EntropyFrac), sum)
	snap.Bits = float64(snap.ScaledBits) / (float64(total) * float64(uint64(1)<<l.Opts.EntropyFrac))
	return snap
}

// entropyH0 converts a collapse threshold in bits to the fixed-point form the
// in-switch check compares against; zero or less disables the check. No
// count of observations has more than 64 bits of entropy, so a threshold
// above that, infinite or NaN is refused, as is one whose fixed-point form
// overflows 64 bits.
func (l *Library) entropyH0(bits float64) (uint64, error) {
	scaled := bits * float64(uint64(1)<<l.Opts.EntropyFrac)
	if math.IsNaN(bits) || math.IsInf(bits, 0) || bits > 64 || scaled >= 1<<64 {
		return 0, fmt.Errorf("stat4p4: entropy threshold %v bits out of range (max 64 at EntropyFrac %d)", bits, l.Opts.EntropyFrac)
	}
	if bits <= 0 {
		return 0, nil
	}
	return uint64(scaled), nil
}
