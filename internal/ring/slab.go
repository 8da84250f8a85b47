package ring

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Slab is the pool of fixed-size blocks the rings' descriptors point into,
// with a lock-free free list (Treiber stack over block indices, ABA-guarded
// by a tag in the high bits of the packed head word). Producers TryAcquire
// concurrently; whoever holds a block Releases it — there are no other
// states. A block's storage is allocated on its first acquisition, so a
// slab commits memory only for the blocks its traffic has ever held at once.
type Slab struct {
	blockSize int
	// blocks holds each block's storage, nil until the block is first
	// acquired. Only the holder writes its slot (on that first acquisition);
	// the ring push/pop or the free list's CAS that hands the block on
	// publishes the slot to the next holder.
	blocks [][]byte
	// next holds the free-list links (idx+1, 0 terminates). Links are
	// atomic because a CAS loser in TryAcquire may read a link the block's
	// new holder is already rewriting for a Release; the stale value is
	// discarded when its CAS fails, but the access itself must not race.
	next []atomic.Uint32

	head  atomic.Uint64 // packed: tag<<32 | (idx+1); low word 0 == empty
	inUse atomic.Int64
}

// NewSlab returns a slab of nblocks blocks of blockSize bytes, all free.
func NewSlab(nblocks, blockSize int) *Slab {
	if nblocks <= 0 || nblocks >= 1<<31 || blockSize <= 0 {
		panic(fmt.Sprintf("ring: bad slab geometry %d x %d", nblocks, blockSize))
	}
	s := &Slab{
		blockSize: blockSize,
		blocks:    make([][]byte, nblocks),
		next:      make([]atomic.Uint32, nblocks),
	}
	// Chain 0 -> 1 -> ... -> nblocks-1 and point the head at block 0.
	for i := 0; i < nblocks-1; i++ {
		s.next[i].Store(uint32(i + 2))
	}
	s.head.Store(1)
	layoutPad()
	return s
}

// TryAcquire pops a free block handle, or reports slab exhaustion — the
// producer sheds frames (counting them) until the consumer releases blocks.
//
//stat4:datapath
//stat4:exempt:boundedloop the pop loop re-runs only when another producer wins the head CAS first; each iteration is one load-CAS
func (s *Slab) TryAcquire() (uint32, bool) {
	for {
		h := s.head.Load()
		enc := uint32(h)
		if enc == 0 {
			return 0, false
		}
		idx := enc - 1
		// The link read is ordered after the head load and revalidated by
		// the CAS; the tag in the high bits makes a recycled head value
		// (pop, repush of the same block) fail the CAS.
		nxt := s.next[idx].Load()
		if s.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(nxt)) {
			s.inUse.Add(1)
			if s.blocks[idx] == nil {
				s.materialise(idx)
			}
			return idx, true
		}
	}
}

// materialise allocates block idx's storage for its first holder. It stays
// out of line: the acquire loop is the hot path, this is its cold branch.
//
//go:noinline
//stat4:exempt:allocfree runs at most Blocks() times in a slab's life, once per block on its first acquisition; a reacquired block reuses its storage
func (s *Slab) materialise(idx uint32) {
	s.blocks[idx] = make([]byte, s.blockSize)
}

// Release pushes a block handle back on the free list. Only the current
// holder (the producer on a failed push, the consumer after draining the
// batch) may call it.
//
//stat4:datapath
//stat4:exempt:boundedloop the push loop re-runs only when another holder wins the head CAS first; each iteration is one store-CAS
func (s *Slab) Release(idx uint32) {
	for {
		h := s.head.Load()
		s.next[idx].Store(uint32(h))
		if s.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(idx+1)) {
			s.inUse.Add(-1)
			return
		}
	}
}

// Bytes returns block idx's full storage; only its holder may call it. The
// holder slices it as scratch; batch producers normally go through
// AppendFrame on Bytes(idx)[:0]. The slice's length and capacity are the
// block size and no two blocks share storage, so an append that does not fit
// is refused instead of running into another block.
//
//stat4:datapath
func (s *Slab) Bytes(idx uint32) []byte {
	return s.blocks[idx]
}

// BlockSize returns the per-block capacity in bytes.
func (s *Slab) BlockSize() int { return s.blockSize }

// InUse returns how many blocks are currently acquired — the occupancy
// gauge next to the ring depth.
func (s *Slab) InUse() uint64 {
	n := s.inUse.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// Frame records inside a block: 8-byte timestamp, 2-byte ingress port,
// 4-byte frame length, then the frame bytes, little-endian, back to back.
// The same layout is the daemon's wire protocol, so a socket reader can
// validate a header and copy the frame straight into a block.
const (
	// FrameHdrLen is the per-frame record header size.
	FrameHdrLen = 14
	// MaxFrameLen bounds a single frame record's payload; longer frames are
	// malformed input, not jumbo traffic.
	MaxFrameLen = 1 << 16
)

// AppendFrame appends one frame record to buf without growing it past its
// capacity: the bool reports whether the record fit. Producers flush the
// current block and acquire a fresh one when it stops fitting.
//
//stat4:datapath
func AppendFrame(buf []byte, tsNs uint64, port uint16, frame []byte) ([]byte, bool) {
	need := FrameHdrLen + len(frame)
	n := len(buf)
	if cap(buf)-n < need {
		return buf, false
	}
	buf = buf[:n+need]
	binary.LittleEndian.PutUint64(buf[n:], tsNs)
	binary.LittleEndian.PutUint16(buf[n+8:], port)
	binary.LittleEndian.PutUint32(buf[n+10:], uint32(len(frame)))
	copy(buf[n+FrameHdrLen:], frame)
	return buf, true
}

// FrameIter walks the frame records of one block. The yielded frame slices
// alias the block: they are valid until the block is Released.
type FrameIter struct {
	buf []byte
	n   uint32
}

// NewFrameIter returns an iterator over the first n records of a produced
// block prefix (the Desc's N over the block bytes the producer filled).
func NewFrameIter(buf []byte, n uint32) FrameIter {
	return FrameIter{buf: buf, n: n}
}

// Next yields the next record. A truncated or oversized record ends the
// iteration early (ok == false) rather than slicing out of bounds.
//
//stat4:datapath
func (it *FrameIter) Next() (tsNs uint64, port uint16, frame []byte, ok bool) {
	if it.n == 0 || len(it.buf) < FrameHdrLen {
		return 0, 0, nil, false
	}
	ln := binary.LittleEndian.Uint32(it.buf[10:14])
	if ln > MaxFrameLen || int(ln) > len(it.buf)-FrameHdrLen {
		it.n = 0
		return 0, 0, nil, false
	}
	tsNs = binary.LittleEndian.Uint64(it.buf[0:8])
	port = binary.LittleEndian.Uint16(it.buf[8:10])
	frame = it.buf[FrameHdrLen : FrameHdrLen+int(ln) : FrameHdrLen+int(ln)]
	it.buf = it.buf[FrameHdrLen+int(ln):]
	it.n--
	return tsNs, port, frame, true
}

// layoutPad is one 32-byte slot of code whose only job is layout. Package
// p4 is linked after it, and the part of p4 ahead of (*Switch).run, its
// lowering, shrank by an odd number of 32-byte slots when name lookups
// became map reads. This slot keeps run at its offset in its cache line,
// which `make layout` checks: layout alone has moved the benchmark's pps by
// 7–17 %. ROADMAP item 1(d) retires it, with Runtime's blank
// packet.Prefix field.
//
//go:noinline
func layoutPad() {}
