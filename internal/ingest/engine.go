package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"

	"stat4/internal/p4"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// Config sizes the ingest plane. Zero values take the defaults.
type Config struct {
	// RingCap is the batch-descriptor capacity of the MPSC ring.
	RingCap int
	// SlabBlocks and BlockSize shape the frame slab. A block gets its
	// storage when it is first acquired, so SlabBlocks bounds memory rather
	// than committing it. A frame longer than BlockSize − ring.FrameHdrLen
	// fits no block: it is refused and counted as shed. The 32 KiB default
	// therefore sheds the legal records between that and ring.MaxFrameLen.
	SlabBlocks int
	BlockSize  int
	// BatchFrames caps how many frames a producer packs into one descriptor.
	BatchFrames int
	// AlertKeep bounds the retained most-recent alerts.
	AlertKeep int
}

func (c Config) withDefaults() Config {
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
	if c.SlabBlocks <= 0 {
		c.SlabBlocks = 256
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 32 << 10
	}
	if c.BatchFrames <= 0 {
		c.BatchFrames = 256
	}
	if c.AlertKeep <= 0 {
		c.AlertKeep = 128
	}
	return c
}

// stopSeq is the poison descriptor Stop pushes; producers always push Seq 0.
const stopSeq = ^uint64(0)

// consumerSpins is the consumer's TryPop budget before parking, matching the
// shard workers' posture: a few yielding polls catch back-to-back batches,
// parking covers real idleness.
const consumerSpins = 8

// Engine owns the ring, the slab and the consumer goroutine in front of a
// sharded runtime. Construct with New (which also wires telemetry and the
// alert sink and starts the consumer), feed it through Producers, and Stop
// it before closing the runtime.
type Engine struct {
	sr  *stat4p4.Runtime
	ss  *p4.ShardedSwitch
	cfg Config

	ring   *ring.MPSC
	slab   *ring.Slab
	parker *ring.Parker

	ctrl     chan func()
	doneCh   chan struct{}
	stopOnce sync.Once

	// Multi-producer shed totals (the backpressure ledger).
	shedBatches atomic.Uint64
	shedFrames  atomic.Uint64

	// frames/batches are written by the consumer only; atomic so producers
	// and tests can watch progress without a control round trip.
	frames  atomic.Uint64
	batches atomic.Uint64

	// Consumer-owned state; held lists the slab blocks batch aliases.
	batch      []p4.FrameIn
	held       []uint32
	alerts     []p4.Digest
	alertNext  int
	alertTotal uint64

	sp  *telemetry.ShardedPipeline
	reg *telemetry.Registry
}

// New wires an engine onto a prepared (bound) sharded runtime and starts the
// consumer. The engine installs per-shard telemetry observers and the fleet
// digest sink, so call New before any traffic and keep the runtime's
// control-plane operations routed through Do from then on. The caller keeps
// ownership of the runtime: Stop the engine first, then close the runtime.
func New(sr *stat4p4.Runtime, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		sr:     sr,
		ss:     sr.Sharded(),
		cfg:    cfg,
		ring:   ring.NewMPSC(cfg.RingCap),
		slab:   ring.NewSlab(cfg.SlabBlocks, cfg.BlockSize),
		parker: ring.NewParker(),
		ctrl:   make(chan func(), 16),
		doneCh: make(chan struct{}),
		// Coalescing stops at the descriptor that reaches ForkFrames.
		batch:  make([]p4.FrameIn, 0, sr.Sharded().ForkFrames()+cfg.BatchFrames),
		held:   make([]uint32, 0, cfg.SlabBlocks/2+1),
		alerts: make([]p4.Digest, 0, cfg.AlertKeep),
		sp:     telemetry.NewShardedPipeline(sr.NumShards()),
		reg:    telemetry.NewRegistry("stat4d"),
	}
	for i := 0; i < e.ss.NumShards(); i++ {
		e.ss.Shard(i).SetObserver(e.sp.Shards[i])
	}
	// The sink runs on the consumer goroutine (digest forwarding happens in
	// ProcessBatch's reduce phase), so the alert store needs no lock.
	e.ss.SetDigestSink(func(d p4.Digest) {
		e.alertTotal++
		if len(e.alerts) < cap(e.alerts) {
			e.alerts = append(e.alerts, d)
		} else {
			e.alerts[e.alertNext] = d
		}
		e.alertNext = (e.alertNext + 1) % cap(e.alerts)
	})
	e.sp.Register(e.reg)
	e.reg.RegisterGauge("ingest_ring_depth", "batch descriptors queued in the ingest ring", func() uint64 { return uint64(e.ring.Len()) })
	e.reg.RegisterGauge("ingest_ring_capacity", "ingest ring descriptor capacity", func() uint64 { return uint64(e.ring.Cap()) })
	e.reg.RegisterGauge("ingest_blocks_in_use", "frame slab blocks owned by in-flight batches", e.slab.InUse)
	e.reg.RegisterCounter("ingest_shed_batches", "batches shed against a full ingest ring", e.shedBatches.Load)
	e.reg.RegisterCounter("ingest_shed_frames", "frames lost with shed batches", e.shedFrames.Load)
	e.reg.RegisterCounter("ingest_frames", "frames consumed from the ring", e.frames.Load)
	e.reg.RegisterCounter("ingest_batches", "batch descriptors consumed from the ring", e.batches.Load)
	e.reg.RegisterCounter("alerts_total", "anomaly digests received by the fleet sink", func() uint64 { return e.alertTotal })
	// Scrapes run on the consumer (WriteProm goes through Do), so the
	// runtime's series read merged state without racing a batch.
	stat4p4.RegisterMetrics(sr, e.reg)
	go e.run()
	return e
}

// Runtime returns the underlying sharded runtime. Control-plane calls on it
// must go through Do while the engine runs.
func (e *Engine) Runtime() *stat4p4.Runtime { return e.sr }

// Frames returns how many frames the consumer has fed the datapath.
func (e *Engine) Frames() uint64 { return e.frames.Load() }

// Shed returns the backpressure ledger: batches refused by a full ring and
// frames lost with them (including frames shed against an exhausted slab).
func (e *Engine) Shed() (batches, frames uint64) {
	return e.shedBatches.Load(), e.shedFrames.Load()
}

// run is the consumer loop: control operations first, then batch
// descriptors, spin-then-park when both are dry.
func (e *Engine) run() {
	defer close(e.doneCh)
	var d ring.Desc
	for {
		select {
		case f := <-e.ctrl:
			f()
			continue
		default:
		}
		if !e.ring.TryPop(&d) {
			if !ring.SpinPops(consumerSpins, func() bool { return e.ring.TryPop(&d) }) {
				e.parker.Park(func() bool { return e.ring.Len() > 0 || len(e.ctrl) > 0 })
				continue
			}
		}
		if d.Seq == stopSeq || e.consume(&d) {
			// Run any control work that raced the stop, then exit. Descriptors
			// pushed before Stop precede the poison in FIFO order, so the ring
			// is already drained of committed batches.
			for {
				select {
				case f := <-e.ctrl:
					f()
					continue
				default:
				}
				return
			}
		}
	}
}

// consume decodes d's block into the reused batch and runs the datapath. At
// more than one shard it first coalesces the backlog: it pops descriptors
// already waiting — never waiting for more — until the batch holds the
// switch's ForkFrames or half the slab's blocks (the rest stay free for the
// producers), so only a loaded engine wakes the workers. It never folds in
// the stop descriptor but reports having popped it. The FrameIn slices alias
// the held blocks; ProcessBatch completes before they are released, which is
// the whole ownership story.
func (e *Engine) consume(d *ring.Desc) (stop bool) {
	e.batch, e.held = e.batch[:0], e.held[:0]
	target := e.ss.ForkFrames()
	for {
		e.held = append(e.held, d.Block)
		it := ring.NewFrameIter(e.slab.Bytes(d.Block), d.N)
		for {
			ts, port, frame, ok := it.Next()
			if !ok {
				break
			}
			e.batch = append(e.batch, p4.FrameIn{TsNs: ts, Port: port, Data: frame})
		}
		if len(e.batch) >= target || 2*len(e.held) >= e.cfg.SlabBlocks || !e.ring.TryPop(d) {
			break
		}
		if d.Seq == stopSeq {
			stop = true
			break
		}
	}
	e.ss.ProcessBatch(e.batch, nil)
	for _, b := range e.held {
		e.slab.Release(b)
	}
	e.frames.Add(uint64(len(e.batch)))
	e.batches.Add(uint64(len(e.held)))
	return stop
}

// Stop pushes the poison descriptor, waits for the consumer to drain every
// batch committed before the call, and returns once the consumer has exited.
// Stop the producers first for a complete drain; descriptors pushed after
// Stop are never consumed. Safe to call more than once.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		for !e.ring.TryPush(ring.Desc{Seq: stopSeq}) {
			runtime.Gosched()
		}
		e.parker.Unpark()
	})
	<-e.doneCh
}

// Do runs f on the consumer goroutine, between batches, and waits for it.
// This is the control-plane gateway: telemetry scrapes, snapshot reads and
// binding updates all pass through here so they never overlap a batch in
// flight. The consumer serves control operations ahead of batch descriptors,
// so f may run before batches that were already pushed when Do was called: a
// caller that needs its own frames reflected waits for Frames() to cover
// them first. f waits for at most one batch: one descriptor at one shard, up
// to ForkFrames plus one descriptor of frames at more — which is also why
// Alerts orders digests under load per coalesced batch, shard by shard (each
// shard's own order unchanged). After Stop, f runs on the caller (the
// datapath is quiesced, which is just as exclusive).
func (e *Engine) Do(f func()) {
	var claimed atomic.Bool
	done := make(chan struct{})
	op := func() {
		if claimed.CompareAndSwap(false, true) {
			f()
			close(done)
		}
	}
	select {
	case e.ctrl <- op:
		e.parker.Unpark()
		select {
		case <-done:
		case <-e.doneCh:
			// The consumer exited without popping it; run it here. op is a
			// no-op if the consumer's final control drain got there first.
			op()
			<-done
		}
	case <-e.doneCh:
		f()
	}
}
