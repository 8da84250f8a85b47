package ring

import (
	"fmt"
	"sync/atomic"
)

// Desc is one frame-batch descriptor, the unit both ring flavours carry:
// a Slab block handle, the number of frame records in the block, and a
// producer-assigned sequence number. Producers that hand off batches living
// outside a Slab (the sharded switch's partition arrays) use Block/N as they
// see fit and synchronise on Seq alone.
type Desc struct {
	Block uint32
	N     uint32
	Seq   uint64
}

// cacheLine separates the producer- and consumer-owned index words so the
// two sides never false-share: each index (plus the peer-index cache next to
// it) gets its own line.
const cacheLine = 64

// SPSC is a bounded single-producer single-consumer ring. Pushing is one
// plain slot store and one atomic index store; popping mirrors it. The
// capacity is rounded up to a power of two so positions wrap with a mask.
//
// Exactly one goroutine may push and one may pop; the two may differ and
// need no other synchronisation.
type SPSC struct {
	slots []Desc
	mask  uint64

	_     [cacheLine]byte
	tail  atomic.Uint64 // next push position (producer-owned)
	phead uint64        // producer's cached view of head
	_     [cacheLine - 16]byte
	head  atomic.Uint64 // next pop position (consumer-owned)
	ctail uint64        // consumer's cached view of tail
	_     [cacheLine - 16]byte
}

// NewSPSC returns an empty ring holding at least capacity descriptors
// (rounded up to a power of two).
func NewSPSC(capacity int) *SPSC {
	n := nextPow2(capacity)
	return &SPSC{slots: make([]Desc, n), mask: uint64(n - 1)}
}

// TryPush appends d, or reports a full ring without blocking — the producer
// sheds and counts instead of stalling. The peer's index is re-read only
// when the cached view says full, so a steady-state push costs one atomic
// load, one slot store and one atomic store.
//
//stat4:datapath
func (r *SPSC) TryPush(d Desc) bool {
	t := r.tail.Load()
	if t-r.phead == uint64(len(r.slots)) {
		r.phead = r.head.Load()
		if t-r.phead == uint64(len(r.slots)) {
			return false
		}
	}
	r.slots[t&r.mask] = d
	r.tail.Store(t + 1)
	return true
}

// TryPop moves the oldest descriptor into d, or reports an empty ring.
//
//stat4:datapath
func (r *SPSC) TryPop(d *Desc) bool {
	h := r.head.Load()
	if h == r.ctail {
		r.ctail = r.tail.Load()
		if h == r.ctail {
			return false
		}
	}
	*d = r.slots[h&r.mask]
	r.head.Store(h + 1)
	return true
}

// Len returns the current occupancy. It is exact for the producer and the
// consumer and a consistent snapshot for anyone else (a metrics scrape).
//
//stat4:datapath
func (r *SPSC) Len() int { return int(r.tail.Load() - r.head.Load()) }

// mpscSlot pairs a descriptor with its Vyukov sequence word. The sequence
// both hands a claimed slot from producer to consumer and detects full/empty
// without a shared count: seq == pos means free for the push at pos, seq ==
// pos+1 means readable by the pop at pos.
type mpscSlot struct {
	seq atomic.Uint64
	d   Desc
	_   [cacheLine - 8 - 16]byte
}

// MPSC is a bounded multi-producer single-consumer ring (Vyukov's bounded
// queue with the consumer side single-threaded). Any number of goroutines
// may push concurrently; exactly one may pop.
type MPSC struct {
	slots []mpscSlot
	mask  uint64

	_    [cacheLine]byte
	tail atomic.Uint64 // next claim position (shared by producers)
	_    [cacheLine - 8]byte
	head atomic.Uint64 // next pop position (consumer-owned)
	_    [cacheLine - 8]byte
}

// NewMPSC returns an empty ring holding at least capacity descriptors
// (rounded up to a power of two).
func NewMPSC(capacity int) *MPSC {
	n := nextPow2(capacity)
	r := &MPSC{slots: make([]mpscSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// TryPush claims a slot with a CAS on the tail index, stores d and publishes
// it through the slot's sequence word. A full ring returns false without
// blocking.
//
//stat4:datapath
//stat4:exempt:boundedloop the claim loop re-runs only when another producer wins the tail CAS first; each iteration is one load-compare-CAS, the arbitration a multi-ingress chip does in silicon
func (r *MPSC) TryPush(d Desc) bool {
	pos := r.tail.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		if seq == pos {
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.d = d
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
			continue
		}
		if seq < pos {
			// The slot still holds the entry from one lap ago: full.
			return false
		}
		// Another producer claimed pos; reload and retry.
		pos = r.tail.Load()
	}
}

// TryPop moves the oldest descriptor into d, or reports an empty ring. Only
// the single consumer may call it.
//
//stat4:datapath
func (r *MPSC) TryPop(d *Desc) bool {
	h := r.head.Load()
	s := &r.slots[h&r.mask]
	if s.seq.Load() != h+1 {
		return false
	}
	*d = s.d
	s.seq.Store(h + uint64(len(r.slots)))
	r.head.Store(h + 1)
	return true
}

// Len returns the current occupancy (a consistent snapshot; exact only when
// producers are quiet).
//
//stat4:datapath
func (r *MPSC) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Cap returns the (rounded-up) capacity.
func (r *MPSC) Cap() int { return len(r.slots) }

// nextPow2 rounds capacity up to a power of two (minimum 2, so a ring can
// always hold one in-flight batch plus a close token).
func nextPow2(capacity int) int {
	if capacity > 1<<30 {
		panic(fmt.Sprintf("ring: capacity %d too large", capacity))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	return n
}
