// Package ring is the lock-free ingest plane: bounded, power-of-two batch
// rings (single-producer SPSC for the shard handoff, multi-producer MPSC for
// daemon fan-in) carrying frame-batch descriptors over a pooled block slab,
// plus the spin-then-park consumer glue.
//
// The design splits "which frames" from "the frame bytes". A producer
// acquires a fixed-size block from a Slab, appends length-prefixed frame
// records to it (AppendFrame), and publishes a Desc — block handle, frame
// count, sequence number — through a ring. The consumer walks the block with
// a FrameIter and releases it when done. No descriptor or frame ever touches
// a Go channel or the heap: pushing is an index CAS (MPSC) or a store
// (SPSC), and each block's bytes are allocated once, by the block's first
// acquisition, and reused for the slab's life.
//
// Backpressure contract: TryPush never blocks. A full ring returns false and
// the producer sheds the batch — releasing its block and counting the drop —
// rather than stalling the source or queueing unboundedly, the "Lean
// Algorithms" overload posture. Symmetrically TryPop returns false on an
// empty ring; consumers that want to sleep pair the ring with a Parker
// (spin, then park; producers call Unpark after a push, which is a single
// atomic load while the consumer is running).
//
// Frame-buffer ownership rules (mirroring the netem deliver-callback
// contract): a block belongs to the producer from TryAcquire until its Desc
// is pushed, then to the consumer until Release. Frame slices yielded by
// FrameIter alias the block and die with the Release. A producer whose push
// fails still owns the block and must Release (or reuse) it.
package ring
