package stat4p4

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// This file is the read half of the control plane, spelled once: the view
// table, one row per read-back of tracked state. A row reads one shard's
// registers for a slot, merges the shards' reads into what one switch holding
// the union stream would report, and shapes the read as the stat4d answer
// served at the row's name. The core rows are here; a measure's rows are in
// its own file, listed by its measure row, which is what they need. Read is
// the one entry point, at any shard count.

// View is one row of the view table, reading a T per slot.
type View[T any] struct {
	name string
	read func(s shard, slot int) T
	// merge combines the shards' reads of the slot.
	merge func(rt *Runtime, slot int, shards []T) T
	// body shapes a read as the control plane's JSON answer (nil: the read
	// as it is); n keeps the first n cells or entries (0: all).
	body func(slot, n int, v T) any
	// metrics are the row's scrape series: one field of the read summed
	// over the program's slots, a running total or (gauge) a level.
	metrics []metric[T]
}

type metric[T any] struct {
	name, help string
	gauge      bool
	field      func(T) uint64
}

// AnyView is a view with its value type erased — what the table holds.
type AnyView interface {
	// Name is the row's name and the stat4d path it is served at.
	Name() string
	// Body reads the slot and shapes it as the control plane's answer.
	Body(rt *Runtime, slot, n int) (any, error)
	// ShardBody is Body from one shard's registers alone.
	ShardBody(rt *Runtime, shard, slot, n int) (any, error)
	register(rt *Runtime, reg registry)
}

func (v *View[T]) Name() string { return v.name }

func (v *View[T]) Body(rt *Runtime, slot, n int) (any, error) {
	got, err := Read(rt, v, slot)
	return v.shape(slot, n, got, err)
}

func (v *View[T]) ShardBody(rt *Runtime, shard, slot, n int) (any, error) {
	got, err := ReadShard(rt, v, shard, slot)
	return v.shape(slot, n, got, err)
}

func (v *View[T]) shape(slot, n int, got T, err error) (any, error) {
	if err != nil || v.body == nil {
		return got, err
	}
	return v.body(slot, n, got), nil
}

// registry is where RegisterMetrics puts the series: a telemetry.Registry.
type registry interface {
	RegisterCounter(name, help string, fn func() uint64)
	RegisterGauge(name, help string, fn func() uint64)
}

func (v *View[T]) register(rt *Runtime, reg registry) {
	for _, m := range v.metrics {
		sum := func() (sum uint64) {
			for slot := 0; slot < rt.lib.Opts.Slots; slot++ {
				got, _ := Read(rt, v, slot) // in range, on a program with the row's measure
				sum += m.field(got)
			}
			return sum
		}
		if m.gauge {
			reg.RegisterGauge(m.name, m.help, sum)
		} else {
			reg.RegisterCounter(m.name, m.help, sum)
		}
	}
}

// RegisterMetrics registers the runtime's scrape series: the data plane's
// counters, then the metrics of the view rows of the measures its program
// carries. Each reads on every scrape; a scrape must not race a batch.
func RegisterMetrics(rt *Runtime, reg registry) {
	ss := rt.ss
	reg.RegisterCounter("pkts_in", "frames handed to the shard pipelines", func() uint64 { return ss.Stats().PktsIn })
	reg.RegisterCounter("digests_dropped", "digests lost to a full merged mailbox", func() uint64 { return ss.Stats().DigestDrops })
	reg.RegisterCounter("pkts_out", "frames emitted by the shard pipelines", func() uint64 { return ss.Stats().PktsOut })
	reg.RegisterCounter("parse_errors", "frames rejected by the shard parsers", func() uint64 { return ss.Stats().ParseErrors })
	reg.RegisterCounter("recirculated", "packets that took the recirculation pass", func() uint64 { return ss.Stats().Recirculated })
	for _, m := range measures {
		if *m.on(&rt.lib.Opts) {
			for _, v := range m.views {
				v.register(rt, reg)
			}
		}
	}
}

// SlotView is the row the kind bound on slot reads back through (Moments
// when nothing is), and whether its merged read is the slot's answer; when
// it is not (a clock-driven window), each shard's read is.
func (rt *Runtime) SlotView(slot int) (v AnyView, merged bool) {
	low, ok := rt.slots[slot]
	if !ok {
		return Moments, true
	}
	return low.kind.view, !low.kind.perShard
}

// Read answers one view for one slot: on one shard, the shard's own
// registers; on more, the row's merge of every shard's read. A program built
// without the row's measure gets the error Lower gives; a slot out of range,
// ErrBadSlot.
func Read[T any](rt *Runtime, v *View[T], slot int) (T, error) {
	if err := v.check(rt, slot); err != nil {
		return *new(T), err
	}
	if rt.NumShards() == 1 {
		return v.read(rt.shard(0), slot), nil
	}
	return v.merged(rt, slot), nil
}

// ReadShard answers one view for one slot from one shard's registers alone.
func ReadShard[T any](rt *Runtime, v *View[T], shard, slot int) (T, error) {
	if err := v.check(rt, slot); err != nil {
		return *new(T), err
	}
	if shard < 0 || shard >= rt.NumShards() {
		return *new(T), fmt.Errorf("stat4p4: shard %d of %d", shard, rt.NumShards())
	}
	return v.read(rt.shard(shard), slot), nil
}

func (v *View[T]) check(rt *Runtime, slot int) error {
	o := &rt.lib.Opts
	if err := needs(v).require(o); err != nil {
		return err
	}
	if slot < 0 || slot >= o.Slots {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	return nil
}

func (v *View[T]) merged(rt *Runtime, slot int) T {
	shards := make([]T, rt.NumShards())
	for i := range shards {
		shards[i] = v.read(rt.shard(i), slot)
	}
	return v.merge(rt, slot, shards)
}

// needs is the measure whose row lists the view; nil for a core view.
func needs(v AnyView) *measure {
	for _, m := range measures {
		if slices.Contains(m.views, v) {
			return m
		}
	}
	return nil
}

// Views lists the view table, in the order stat4d serves it: the core rows,
// then each measure's named rows in table order.
func Views() []AnyView {
	out := []AnyView{Moments, Counters}
	for _, m := range measures {
		for _, v := range m.views {
			if v.Name() != "" {
				out = append(out, v)
			}
		}
	}
	return out
}

var (
	// Moments is a slot's scalar block. Merged, it is recomputed with the
	// emitted arithmetic from the slot's merged counts — the counter array,
	// or the counts of the measure of a kind that keeps its own (the flow
	// table's, merged by key) — and the marker is re-derived; MedianMoves
	// sums the shards' movements.
	Moments = &View[MomentsSnapshot]{name: "moments", read: readMoments, merge: mergeMoments}

	// Counters is a slot's Size counter cells. Merged, they add, masked to
	// the cell width.
	Counters = &View[[]uint64]{name: "counters",
		read: func(s shard, slot int) []uint64 {
			out, reg := make([]uint64, s.lib.Opts.Size), s.reg(RegCounters)
			for i := range out {
				out[i], _ = reg.Read(slot*len(out) + i)
			}
			return out
		},
		merge: func(rt *Runtime, _ int, shards [][]uint64) []uint64 {
			for _, cells := range shards[1:] {
				for i, c := range cells {
					shards[0][i] = (shards[0][i] + c) & rt.lib.cellMask()
				}
			}
			return shards[0]
		},
		body: func(slot, n int, cells []uint64) any { return map[string]any{"slot": slot, "cells": head(cells, n)} }}
)

// MomentsSnapshot is a control-plane snapshot of one distribution's measures.
type MomentsSnapshot struct {
	N, Xsum, Xsumsq, Var, SD, Median uint64
	// MedianMoves is the marker's cumulative movement count; its
	// per-interval difference is the percentile change rate the paper
	// names as an anomaly signal.
	MedianMoves uint64
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

// shard is one shard's registers, as a view row reads them.
type shard struct {
	lib *Library
	sw  *p4.Switch
}

func (rt *Runtime) shard(i int) shard { return shard{rt.lib, rt.ss.Shard(i)} }

// reg looks up a register; Read has refused a program without the row's.
func (s shard) reg(name string) *p4.Register {
	r, _ := s.sw.Register(name)
	return r
}

func (s shard) cell(name string, i int) uint64 {
	v, _ := s.reg(name).Read(i)
	return v
}

// table reads a slot's occupied buckets of a keyed table, heaviest first. A
// bucket is occupied when its count — or, in a flow table, its stamp — is
// non-zero; stamps is "" for a table without them.
func (s shard) table(slot, size int, keys, counts, stamps string) []Entry {
	k, c, st := s.reg(keys), s.reg(counts), s.reg(stamps)
	var out []Entry
	for i := slot * size; i < (slot+1)*size; i++ {
		var e Entry
		if st != nil {
			e.Stamp, _ = st.Read(i)
		}
		if e.Count, _ = c.Read(i); e.Count != 0 || e.Stamp != 0 {
			e.Key, _ = k.Read(i)
			out = append(out, e)
		}
	}
	return byKey(out)
}

func readMoments(s shard, slot int) MomentsSnapshot {
	c := func(name string) uint64 { return s.cell(name, slot) }
	return MomentsSnapshot{c(RegN), c(RegXsum), c(RegXsumsq), c(RegVar), c(RegSD), c(RegMed), c(RegMedMoves)}
}

func mergeMoments(rt *Runtime, slot int, shards []MomentsSnapshot) MomentsSnapshot {
	low, ok := rt.slots[slot]
	pa, pb := uint64(1), uint64(1)
	if ok && low.Note != nil {
		pa, pb = low.Note.PA, low.Note.PB
	}
	var s slotScalars
	if ok && low.kind.needs != nil && low.kind.needs.counts != nil {
		s = rt.lib.recomputeSlot(low.kind.needs.counts(rt, slot), pa, pb)
		s.med = 0
	} else {
		s = rt.lib.recomputeSlot(Counters.merged(rt, slot), pa, pb)
	}
	// Only a kind that notes the marker's weights keeps a marker to merge.
	if !ok || low.kind.note == nil {
		s.med = 0
	}
	m := MomentsSnapshot{N: s.n, Xsum: s.xsum, Xsumsq: s.xsumsq, Var: s.varv, SD: s.sd, Median: s.med}
	for _, sh := range shards {
		m.MedianMoves = (m.MedianMoves + sh.MedianMoves) & rt.lib.cellMask()
	}
	return m
}
