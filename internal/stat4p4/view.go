package stat4p4

import (
	"encoding/json"
	"fmt"
	"sort"

	"stat4/internal/intstat"
	"stat4/internal/p4"
	"stat4/internal/packet"
)

// This file is the read half of the control plane, spelled once: the view
// table, one row per read-back of tracked state. A row names the Options
// feature it needs, reads one switch's registers for a slot, merges the
// shards' reads into what one switch holding the union stream would report,
// and shapes the read as the stat4d answer served at the row's name. Read is
// the one entry point, on a Runtime and a ShardedRuntime alike.

// View is one row of the view table, reading a T per slot.
type View[T any] struct {
	name  string
	needs *feature // nil: part of every program
	read  func(rt *Runtime, slot int) T
	// merge combines the shards' reads of the slot.
	merge func(sr *ShardedRuntime, slot int, shards []T) T
	// body shapes a read as the control plane's JSON answer (nil: the read
	// as it is); n keeps the first n cells or entries (0: all).
	body func(slot, n int, v T) any
}

// AnyView is a view with its value type erased — what the table holds.
type AnyView interface {
	// Name is the row's name and the stat4d path it is served at.
	Name() string
	// Body reads the slot and shapes it as the control plane's answer.
	Body(t Target, slot, n int) (any, error)
}

func (v *View[T]) Name() string { return v.name }

func (v *View[T]) Body(t Target, slot, n int) (any, error) {
	got, err := Read(t, v, slot)
	if err != nil || v.body == nil {
		return got, err
	}
	return v.body(slot, n, got), nil
}

// Read answers one view for one slot: a Runtime's raw registers, or the
// row's merge of a ShardedRuntime's shards. A program built without the
// row's feature gets the error Lower gives; a slot out of range, ErrBadSlot.
func Read[T any](t Target, v *View[T], slot int) (T, error) {
	var zero T
	o := &t.Library().Opts
	if err := v.needs.check(o); err != nil {
		return zero, err
	}
	if slot < 0 || slot >= o.Slots {
		return zero, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	switch rt := t.(type) {
	case *Runtime:
		return v.read(rt, slot), nil
	case *ShardedRuntime:
		return v.merged(rt, slot), nil
	}
	return zero, fmt.Errorf("stat4p4: %T has no registers to read", t)
}

func (v *View[T]) merged(sr *ShardedRuntime, slot int) T {
	shards := make([]T, len(sr.rts))
	for i, rt := range sr.rts {
		shards[i] = v.read(rt, slot)
	}
	return v.merge(sr, slot, shards)
}

// Views lists the view table, in the order stat4d serves it.
func Views() []AnyView { return []AnyView{Moments, Counters, Entropy, HeavyHitters, Flows} }

var (
	// Moments is a slot's scalar block. Merged, it is recomputed with the
	// emitted arithmetic from the slot's merged counts — the counter array,
	// or the key-merged flow counts of a slot bound to a flow kind — and the
	// marker is re-derived; MedianMoves sums the shards' movements.
	Moments = &View[MomentsSnapshot]{name: "moments", read: readMoments, merge: mergeMoments}

	// Counters is a slot's Size counter cells. Merged, they add, masked to
	// the cell width.
	Counters = &View[[]uint64]{name: "counters",
		read: func(rt *Runtime, slot int) []uint64 {
			out, reg := make([]uint64, rt.lib.Opts.Size), rt.reg(RegCounters)
			for i := range out {
				out[i], _ = reg.Read(slot*len(out) + i)
			}
			return out
		},
		merge: func(sr *ShardedRuntime, _ int, shards [][]uint64) []uint64 {
			for _, cells := range shards[1:] {
				for i, c := range cells {
					shards[0][i] = (shards[0][i] + c) & sr.lib.cellMask()
				}
			}
			return shards[0]
		},
		body: func(slot, n int, cells []uint64) any { return map[string]any{"slot": slot, "cells": head(cells, n)} }}

	// Entropy is a slot's entropy registers in the scaled form. Merged, S is
	// rederived from the merged counters.
	Entropy = &View[EntropySnapshot]{name: "entropy", needs: featEntropy,
		read: func(rt *Runtime, slot int) EntropySnapshot {
			return rt.lib.entropySnapshot(rt.cell(RegXsum, slot), rt.cell(RegEntSum, slot))
		},
		merge: func(sr *ShardedRuntime, slot int, _ []EntropySnapshot) EntropySnapshot {
			mask := sr.lib.cellMask()
			var total, sum uint64
			for _, f := range Counters.merged(sr, slot) {
				total += f
				sum += (f * intstat.Log2Fixed(f, sr.lib.Opts.EntropyFrac)) & mask
			}
			return sr.lib.entropySnapshot(total&mask, sum&mask)
		},
		body: func(slot, _ int, e EntropySnapshot) any {
			return struct {
				Slot int `json:"slot"`
				EntropySnapshot
			}{slot, e}
		}}

	// HeavyHitters is a slot's candidate table and rejected promotions.
	// Merged, candidates add by key and rejections sum.
	HeavyHitters = &View[HHSnapshot]{name: "heavyhitters", needs: featHH,
		read: func(rt *Runtime, slot int) HHSnapshot {
			return HHSnapshot{rt.cell(RegHHRej, slot), rt.table(slot, rt.lib.Opts.HHTableSize, RegHHKeys, RegHHCounts, "")}
		},
		merge: func(_ *ShardedRuntime, _ int, shards []HHSnapshot) (m HHSnapshot) {
			for _, s := range shards {
				m.Rejected += s.Rejected
				m.Entries = append(m.Entries, s.Entries...)
			}
			m.Entries = byKey(m.Entries)
			return m
		},
		body: func(slot, _ int, h HHSnapshot) any {
			return struct {
				Slot int `json:"slot"`
				HHSnapshot
			}{slot, h}
		}}

	// Flows is a slot's flow-table ledger and occupied buckets. Merged,
	// ledgers sum and flows add by key.
	Flows = &View[FlowSnapshot]{name: "flows", needs: featFlow,
		read: func(rt *Runtime, slot int) FlowSnapshot {
			return FlowSnapshot{readFlowLedger(rt, slot), rt.table(slot, rt.lib.Opts.FlowTableSize, RegFTKeys, RegFTCnt, RegFTStamp)}
		},
		merge: func(sr *ShardedRuntime, slot int, shards []FlowSnapshot) FlowSnapshot {
			var all []Entry
			for _, s := range shards {
				all = append(all, s.Entries...)
			}
			return FlowSnapshot{FlowLedger.merged(sr, slot), byKey(all)}
		},
		body: func(slot, n int, f FlowSnapshot) any {
			f.Entries = head(f.Entries, n)
			return struct {
				Slot int `json:"slot"`
				FlowSnapshot
				LoadFactor float64 `json:"load_factor"`
			}{slot, f, float64(f.Occupied) / float64(max(f.Capacity, 1))}
		}}

	// FlowLedger is the ledger half of Flows alone, per-slot counters with no
	// bucket walk, for readers on a clock (the flow_* scrape gauges); it has
	// no path of its own. Merged, ledgers and capacities add.
	FlowLedger = &View[FlowStats]{needs: featFlow, read: readFlowLedger,
		merge: func(_ *ShardedRuntime, _ int, shards []FlowStats) (m FlowStats) {
			for _, s := range shards {
				m = FlowStats{m.Occupied + s.Occupied, m.Admitted + s.Admitted, m.Evicted + s.Evicted,
					m.Rejected + s.Rejected, m.Shed + s.Shed, m.Capacity + s.Capacity}
			}
			return m
		}}
)

// MomentsSnapshot is a control-plane snapshot of one distribution's measures.
type MomentsSnapshot struct {
	N, Xsum, Xsumsq, Var, SD, Median uint64
	// MedianMoves is the marker's cumulative movement count; its
	// per-interval difference is the percentile change rate the paper
	// names as an anomaly signal.
	MedianMoves uint64
}

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

// HHSnapshot is a slot's candidate table, heaviest first, and its count of
// promotions rejected with both candidate buckets taken.
type HHSnapshot struct {
	Rejected uint64  `json:"rejected"`
	Entries  []Entry `json:"entries"`
}

// FlowStats is the admission ledger of one slot's flow table. Occupied
// counts buckets holding an entry, live or expired.
type FlowStats struct {
	Occupied uint64 `json:"occupied"`
	Admitted uint64 `json:"admitted"`
	Evicted  uint64 `json:"evicted"`
	Rejected uint64 `json:"rejected"`
	Shed     uint64 `json:"shed"`
	Capacity uint64 `json:"capacity"`
}

// FlowSnapshot is a slot's ledger and occupied flow buckets, heaviest first.
type FlowSnapshot struct {
	FlowStats
	Entries []Entry `json:"flows"`
}

// Entry is one occupied bucket of a heavy-hitter candidate table or a flow
// table. Count tallies a candidate's promotions, each ≈ 2^sampleShift
// packets, or a flow's packets; Stamp is a flow's last-touch epoch + 1.
type Entry struct{ Key, Count, Stamp uint64 }

// MarshalJSON serves the key's low 32 bits as a dotted quad beside it.
func (e Entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string `json:"key"`
		Raw   uint64 `json:"raw_key"`
		Count uint64 `json:"count"`
		Stamp uint64 `json:"stamp,omitempty"` // an occupied flow bucket's is ≥ 1
	}{packet.IP4(e.Key).String(), e.Key, e.Count, e.Stamp})
}

// byKey merges entries sharing a key (one key can sit in every shard's
// table), adding counts and keeping the freshest stamp, heaviest first.
func byKey(entries []Entry) []Entry {
	merged := make(map[uint64]Entry)
	for _, e := range entries {
		m := merged[e.Key]
		merged[e.Key] = Entry{e.Key, m.Count + e.Count, max(m.Stamp, e.Stamp)}
	}
	var out []Entry
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// head keeps the first n of a list, all of it when n is 0.
func head[E any](list []E, n int) []E {
	if n > 0 && n < len(list) {
		return list[:n]
	}
	return list
}

// reg looks up a register; Read has refused a program without the row's.
func (rt *Runtime) reg(name string) *p4.Register {
	r, _ := rt.sw.Register(name)
	return r
}

func (rt *Runtime) cell(name string, i int) uint64 {
	v, _ := rt.reg(name).Read(i)
	return v
}

// table reads a slot's occupied buckets of a keyed table, heaviest first. A
// bucket is occupied when its count — or, in a flow table, its stamp — is
// non-zero; stamps is "" for a table without them.
func (rt *Runtime) table(slot, size int, keys, counts, stamps string) []Entry {
	k, c, s := rt.reg(keys), rt.reg(counts), rt.reg(stamps)
	var out []Entry
	for i := slot * size; i < (slot+1)*size; i++ {
		var e Entry
		if s != nil {
			e.Stamp, _ = s.Read(i)
		}
		if e.Count, _ = c.Read(i); e.Count != 0 || e.Stamp != 0 {
			e.Key, _ = k.Read(i)
			out = append(out, e)
		}
	}
	return byKey(out)
}

func readMoments(rt *Runtime, slot int) MomentsSnapshot {
	c := func(name string) uint64 { return rt.cell(name, slot) }
	return MomentsSnapshot{c(RegN), c(RegXsum), c(RegXsumsq), c(RegVar), c(RegSD), c(RegMed), c(RegMedMoves)}
}

func mergeMoments(sr *ShardedRuntime, slot int, shards []MomentsSnapshot) MomentsSnapshot {
	low, ok := sr.slots[slot]
	pa, pb := uint64(1), uint64(1)
	if ok && low.Note != nil {
		pa, pb = low.Note.PA, low.Note.PB
	}
	var s slotScalars
	if ok && low.kind.view == Flows {
		// A flow kind counts into its flow table and keeps no marker.
		var counts []uint64
		for _, e := range Flows.merged(sr, slot).Entries {
			counts = append(counts, e.Count)
		}
		s = sr.lib.recomputeSlot(counts, pa, pb)
		s.med = 0
	} else {
		s = sr.lib.recomputeSlot(Counters.merged(sr, slot), pa, pb)
	}
	m := MomentsSnapshot{N: s.n, Xsum: s.xsum, Xsumsq: s.xsumsq, Var: s.varv, SD: s.sd, Median: s.med}
	for _, sh := range shards {
		m.MedianMoves = (m.MedianMoves + sh.MedianMoves) & sr.lib.cellMask()
	}
	return m
}

// readFlowLedger derives Occupied as claims minus reclaims, the conservation
// half of the flowtable ledger invariant.
func readFlowLedger(rt *Runtime, slot int) FlowStats {
	adm, evt := rt.cell(RegFTAdm, slot), rt.cell(RegFTEvt, slot)
	return FlowStats{adm - evt, adm, evt, rt.cell(RegFTRej, slot), rt.cell(RegFTShed, slot), uint64(rt.lib.Opts.FlowTableSize)}
}
