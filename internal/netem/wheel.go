package netem

import "math/bits"

// The hierarchical timer wheel: four levels of 256 slots each, so the wheels
// cover a 2^32 ns (~4.3 s) horizon at 1 ns resolution. Level 0 slots are
// single ticks; a level-l slot spans 2^(8l) ticks. An event lives at the
// lowest level whose slot, read from the absolute bits of its timestamp,
// still disambiguates it from the cursor: same 2^8 block as the cursor →
// level 0, same 2^16 block → level 1, and so on. Events beyond the horizon
// (a different 2^32 block) wait in the overflow list and are re-filed when
// the cursor reaches their block.
//
// Buckets are intrusive FIFO chains through the event slab, and occupancy is
// tracked in per-level bitmaps, so scheduling is O(1) and finding the next
// event is a handful of word scans. Equal-timestamp events never separate:
// they share every slot assignment at every level, and chains append at the
// tail, so cascades and refiles preserve their insertion (seq) order — the
// FIFO tie-break the reference heap engine (ref_test.go) gets from
// comparing seq explicitly.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64
)

// bucket is one slot's chain. head/tail are slab indices; a bucket is only
// meaningful while its occupancy bit is set, which is what makes the zero
// value of the whole wheel valid without initialising 1024 sentinels.
type bucket struct{ head, tail int32 }

type wheel struct {
	// pos is the cursor. Invariant: pos is ≤ the timestamp of every pending
	// event and ≤ every future insertion time (insertions happen at or after
	// the simulation clock, which never trails pos).
	pos uint64

	buckets [wheelLevels][wheelSlots]bucket
	occ     [wheelLevels][wheelWords]uint64

	// overflow chains events whose timestamp lies in a later 2^32 block, in
	// insertion order. overflowMin is the exact minimum timestamp in it.
	overflow     int32
	overflowTail int32
	overflowLen  int
	overflowMin  uint64
}

func (w *wheel) reset() {
	w.overflow, w.overflowTail = -1, -1
}

// put appends event idx to bucket (lvl, slot), preserving FIFO order.
func (w *wheel) put(lvl, slot int, idx int32, slab []event) {
	slab[idx].next = -1
	word, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	b := &w.buckets[lvl][slot]
	if w.occ[lvl][word]&bit == 0 {
		w.occ[lvl][word] |= bit
		b.head, b.tail = idx, idx
		return
	}
	slab[b.tail].next = idx
	b.tail = idx
}

// take detaches and returns bucket (lvl, slot)'s chain head, or -1.
func (w *wheel) take(lvl, slot int) int32 {
	word, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	if w.occ[lvl][word]&bit == 0 {
		return -1
	}
	w.occ[lvl][word] &^= bit
	return w.buckets[lvl][slot].head
}

// scan returns the first occupied slot ≥ from at the given level, or -1.
func (w *wheel) scan(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	word := from >> 6
	m := w.occ[lvl][word] >> (uint(from) & 63) << (uint(from) & 63)
	for {
		if m != 0 {
			return word<<6 + bits.TrailingZeros64(m)
		}
		word++
		if word >= wheelWords {
			return -1
		}
		m = w.occ[lvl][word]
	}
}

// wheelInsert files a slab event (whose at/seq are already set) into the
// wheel. Callers guarantee at ≥ w.pos.
//
//stat4:reference host-side scheduler, unbounded chains and variable shifts
func (s *Sim) wheelInsert(idx int32) {
	w := &s.wheel
	at := s.slab[idx].at
	if at>>32 != w.pos>>32 {
		// Beyond the horizon: overflow, kept in insertion order.
		s.slab[idx].next = -1
		if w.overflowTail >= 0 {
			s.slab[w.overflowTail].next = idx
		} else {
			w.overflow = idx
		}
		w.overflowTail = idx
		if w.overflowLen == 0 || at < w.overflowMin {
			w.overflowMin = at
		}
		w.overflowLen++
		return
	}
	lvl := 0
	if x := at ^ w.pos; x >= wheelSlots {
		lvl = (bits.Len64(x) - 1) / wheelBits
	}
	w.put(lvl, int(at>>(wheelBits*uint(lvl))&wheelMask), idx, s.slab)
}

// wheelPop removes and returns the earliest pending event with at ≤ deadline,
// or -1. The cursor only ever advances to an occupied bucket's base or a
// popped event's timestamp, both ≤ deadline, so a bounded run never strands
// the cursor past timestamps that later RunUntil calls may still schedule.
//
//stat4:reference host-side scheduler, unbounded chains and variable shifts
func (s *Sim) wheelPop(deadline uint64) int32 {
	w := &s.wheel
	for {
		if slot := w.scan(0, int(w.pos&wheelMask)); slot >= 0 {
			at := w.pos&^uint64(wheelMask) | uint64(slot)
			if at > deadline {
				return -1
			}
			w.pos = at
			b := &w.buckets[0][slot]
			idx := b.head
			if next := s.slab[idx].next; next >= 0 {
				b.head = next
			} else {
				w.occ[0][slot>>6] &^= 1 << (uint(slot) & 63)
			}
			return idx
		}
		if !s.wheelAdvance(deadline) {
			return -1
		}
	}
}

// wheelAdvance moves the cursor to the base of the nearest occupied
// higher-level bucket (if ≤ deadline) and distributes that bucket one level
// down, or re-files the overflow list when the wheels are empty. Levels are
// checked nearest-first and overflow timestamps are by construction beyond
// every wheel event, so the first occupied bucket is the one holding the
// minimum. Returns false when nothing is due by the deadline.
//
// Scans are from the cursor's own slot inclusive: a slot the cursor has
// entered was drained (its bit cleared) when it was distributed, and
// insertions never target it again — except that distribution itself can
// drop events whose remaining low bits are zero back into the cursor's slot
// one level down. Such a bucket's base equals the cursor, so the next
// advance re-selects it unconditionally (base ≤ deadline always holds) and
// sinks it further; events keep descending until they reach level 0 before
// any handler can run, so dispatch order never sees them misfiled.
func (s *Sim) wheelAdvance(deadline uint64) bool {
	w := &s.wheel
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := wheelBits * uint(lvl)
		slot := w.scan(lvl, int(w.pos>>shift&wheelMask))
		if slot < 0 {
			continue
		}
		base := w.pos&^(uint64(1)<<(shift+wheelBits)-1) | uint64(slot)<<shift
		if base > deadline {
			return false
		}
		w.pos = base
		// Distribute the bucket one level down, preserving chain order so
		// same-timestamp events keep their FIFO sequence.
		idx := w.take(lvl, slot)
		lshift := shift - wheelBits
		for idx >= 0 {
			next := s.slab[idx].next
			w.put(lvl-1, int(s.slab[idx].at>>lshift&wheelMask), idx, s.slab)
			idx = next
		}
		return true
	}
	if w.overflowLen == 0 || w.overflowMin > deadline {
		return false
	}
	s.refileOverflow()
	return true
}

// refileOverflow jumps the cursor to the earliest far-future event and
// re-inserts the overflow list in its original order: events now inside the
// horizon spread into the wheels, later ones rebuild the overflow list.
func (s *Sim) refileOverflow() {
	w := &s.wheel
	w.pos = w.overflowMin
	idx := w.overflow
	w.overflow, w.overflowTail, w.overflowLen, w.overflowMin = -1, -1, 0, 0
	for idx >= 0 {
		next := s.slab[idx].next
		s.wheelInsert(idx)
		idx = next
	}
}

// nextPendingLB returns a lower bound on the earliest pending timestamp
// without mutating the wheel: exact when the event is already in level 0,
// its bucket's base otherwise, and ^uint64(0) when nothing is pending. The
// stream pump uses it as the batching horizon — a conservative bound only
// ends a run early, never reorders it, because the pump reschedules itself
// at the next packet's timestamp and the dispatch loop re-establishes order.
//
//stat4:reference host-side scheduler, unbounded chains and variable shifts
func (s *Sim) nextPendingLB() uint64 {
	w := &s.wheel
	if slot := w.scan(0, int(w.pos&wheelMask)); slot >= 0 {
		return w.pos&^uint64(wheelMask) | uint64(slot)
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := wheelBits * uint(lvl)
		// Inclusive scan, mirroring wheelAdvance: the cursor's own slot can
		// transiently hold a bucket distributed from above.
		if slot := w.scan(lvl, int(w.pos>>shift&wheelMask)); slot >= 0 {
			return w.pos&^(uint64(1)<<(shift+wheelBits)-1) | uint64(slot)<<shift
		}
	}
	if w.overflowLen > 0 {
		return w.overflowMin
	}
	return ^uint64(0)
}
