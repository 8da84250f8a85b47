package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// This file emits the sparse (hash-bucket) tracking mode, the Section 5
// extension prototyped in core.SparseFreqDist: instead of one counter per
// possible value, a slot's Size cells become a 2-way hash table of
// {key, count} buckets indexed by the target's hash engine. Memory becomes
// proportional to observed keys — the fix for "Stat4 currently allocates
// switch resources for every possible value in the tracked distributions".
//
// The moments update identically to frequency mode (the shared freq_load /
// freq_accum actions run once the bucket index is resolved); percentile
// markers are unavailable because buckets are in hash order. Keys whose two
// candidate buckets are both taken by other keys are counted in a rejection
// register rather than aliased, so the moments never silently corrupt.

// Sparse-mode register names.
const (
	RegKeys     = "stat.skeys"    // bucket keys, Slots×Size cells
	RegUsedBits = "stat.sused"    // bucket valid flags, Slots×Size cells
	RegRejected = "stat.rejected" // per-slot rejected-observation counters
)

const kindSparse = 2

// declareSparse adds the sparse-mode registers, binding actions and probe
// actions to the program.
func (l *Library) declareSparse() {
	f := &l.f
	cells := l.Opts.Slots * l.Opts.Size
	// Bucket keys and valid flags are replica-local: shards see different
	// flow subsets, so their hash buckets hold different keys and cannot be
	// combined cell-wise. Rejection counts are plain sums.
	l.Prog.AddRegister(RegKeys, cells, 64)
	l.Prog.SetRegisterMerge(RegKeys, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegKeys,
		"hash-bucket key ownership is replica-local; shards claim different keys for the same cell")
	l.Prog.AddRegister(RegUsedBits, cells, l.Opts.CellWidth)
	l.Prog.SetRegisterMerge(RegUsedBits, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegUsedBits,
		"bucket-occupancy latch for the replica-local key table")
	l.Prog.AddRegister(RegRejected, l.Opts.Slots, l.Opts.CellWidth)
	l.Prog.SetRegisterMerge(RegRejected, p4.MergeSum)

	common := []p4.Op{
		p4.Mov(f.base, p4.P(0)),
		p4.Mov(f.slotid, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindSparse)),
	}
	// bind_sparse_dst(slotBase, slot, shift, k): key = ipv4.dst >> shift.
	l.Prog.AddAction(p4.NewAction("bind_sparse_dst", 4, append(append([]p4.Op{}, common...),
		p4.Shr(f.val, p4.F(l.Std.IPv4Dst), p4.P(2)),
		p4.Mov(f.k, p4.P(3)),
	)...))
	// bind_sparse_src(slotBase, slot, shift, k): key = ipv4.src >> shift —
	// per-source counting (super-spreader / DDoS source tracking).
	l.Prog.AddAction(p4.NewAction("bind_sparse_src", 4, append(append([]p4.Op{}, common...),
		p4.Shr(f.val, p4.F(l.Std.IPv4Src), p4.P(2)),
		p4.Mov(f.k, p4.P(3)),
	)...))

	mask := uint64(l.Opts.Size - 1)
	// sparse_probe: compute both candidate buckets and load their state.
	l.Prog.AddAction(p4.NewAction("sparse_probe", 0,
		p4.Hash(f.h1, 0, p4.F(f.val), mask),
		p4.Add(f.h1, p4.F(f.base), p4.F(f.h1)),
		p4.Hash(f.h2, 1, p4.F(f.val), mask),
		p4.Add(f.h2, p4.F(f.base), p4.F(f.h2)),
		p4.RegRead(f.k1, RegKeys, p4.F(f.h1)),
		p4.RegRead(f.u1, RegUsedBits, p4.F(f.h1)),
		p4.RegRead(f.k2, RegKeys, p4.F(f.h2)),
		p4.RegRead(f.u2, RegUsedBits, p4.F(f.h2)),
	))
	// sparse_claim1/2: take an empty bucket for this key.
	l.Prog.AddAction(p4.NewAction("sparse_claim1", 0,
		p4.RegWrite(RegUsedBits, p4.F(f.h1), p4.C(1)),
		p4.RegWrite(RegKeys, p4.F(f.h1), p4.F(f.val)),
		p4.Mov(f.idx, p4.F(f.h1)),
		p4.Mov(f.ok, p4.C(1)),
	))
	l.Prog.AddAction(p4.NewAction("sparse_claim2", 0,
		p4.RegWrite(RegUsedBits, p4.F(f.h2), p4.C(1)),
		p4.RegWrite(RegKeys, p4.F(f.h2), p4.F(f.val)),
		p4.Mov(f.idx, p4.F(f.h2)),
		p4.Mov(f.ok, p4.C(1)),
	))
	// sparse_sel1/2: the key already owns this bucket.
	l.Prog.AddAction(p4.NewAction("sparse_sel1", 0,
		p4.Mov(f.idx, p4.F(f.h1)),
		p4.Mov(f.ok, p4.C(1)),
	))
	l.Prog.AddAction(p4.NewAction("sparse_sel2", 0,
		p4.Mov(f.idx, p4.F(f.h2)),
		p4.Mov(f.ok, p4.C(1)),
	))
	// sparse_reject: both candidates taken by other keys.
	l.Prog.AddAction(p4.NewAction("sparse_reject", 0,
		p4.RegRead(f.t2, RegRejected, p4.F(f.slotid)),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.RegWrite(RegRejected, p4.F(f.slotid), p4.F(f.t2)),
		p4.Mov(f.ok, p4.C(0)),
	))
}

// sparseBlock resolves the bucket with 2-way probing, then reuses the shared
// frequency accumulation (moments, variance, σ) on the resolved index.
func (l *Library) sparseBlock() []p4.Stmt {
	f := &l.f
	eqf := func(a, b p4.FieldID) p4.Cond { return p4.Cond{A: p4.F(a), Op: p4.CmpEq, B: p4.F(b)} }
	resolve := []p4.Stmt{
		p4.Call("sparse_probe"),
		p4.If(eq(f.u1, 0),
			p4.Call("sparse_claim1"),
		).WithElse(
			p4.If(eqf(f.k1, f.val),
				p4.Call("sparse_sel1"),
			).WithElse(
				p4.If(eq(f.u2, 0),
					p4.Call("sparse_claim2"),
				).WithElse(
					p4.If(eqf(f.k2, f.val),
						p4.Call("sparse_sel2"),
					).WithElse(
						p4.Call("sparse_reject"),
					),
				),
			),
		),
	}
	update := []p4.Stmt{p4.Call("sparse_load")}
	update = append(update,
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("freq_accum"),
	)
	update = append(update, l.varStmts()...)
	if !l.Opts.NoVariance {
		update = append(update, p4.If(ne(f.k, 0), p4.Call("freq_arm_check")))
	}
	return append(resolve, p4.If(eq(f.ok, 1), update...))
}

// declareSparseLoad declares the load action sparse mode shares with
// frequency mode, minus the dense index computation.
func (l *Library) declareSparseLoad() {
	f := &l.f
	slot := p4.F(f.slotid)
	l.Prog.AddAction(p4.NewAction("sparse_load",
		0,
		p4.RegRead(f.f, RegCounters, p4.F(f.idx)),
		p4.RegRead(f.n, RegN, slot),
		p4.RegRead(f.xsum, RegXsum, slot),
		p4.RegRead(f.xsumsq, RegXsumsq, slot),
	))
}

// SparseEntry is one occupied bucket read back by the control plane.
type SparseEntry struct {
	Key   uint64
	Count uint64
}

// ReadSparse snapshots a slot's occupied hash buckets.
func (rt *Runtime) ReadSparse(slot int) ([]SparseEntry, error) {
	if slot < 0 || slot >= rt.lib.Opts.Slots {
		return nil, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	keys, err := rt.sw.Register(RegKeys)
	if err != nil {
		return nil, err
	}
	used, err := rt.sw.Register(RegUsedBits)
	if err != nil {
		return nil, err
	}
	counters, err := rt.sw.Register(RegCounters)
	if err != nil {
		return nil, err
	}
	base := slot * rt.lib.Opts.Size
	var out []SparseEntry
	for i := 0; i < rt.lib.Opts.Size; i++ {
		u, _ := used.Read(base + i)
		if u == 0 {
			continue
		}
		k, _ := keys.Read(base + i)
		c, _ := counters.Read(base + i)
		out = append(out, SparseEntry{Key: k, Count: c})
	}
	return out, nil
}

// SparseRejected reads a slot's rejected-observation counter.
func (rt *Runtime) SparseRejected(slot int) (uint64, error) {
	if slot < 0 || slot >= rt.lib.Opts.Slots {
		return 0, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	reg, err := rt.sw.Register(RegRejected)
	if err != nil {
		return 0, err
	}
	return reg.Read(slot)
}

// SparseKeyCount returns a key's count as the control plane computes it,
// probing the same buckets the data plane would. shift must match the
// binding's.
func (rt *Runtime) SparseKeyCount(slot int, key uint64) (uint64, error) {
	entries, err := rt.ReadSparse(slot)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.Key == key {
			return e.Count, nil
		}
	}
	return 0, nil
}
