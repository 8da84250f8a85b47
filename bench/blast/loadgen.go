package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"stat4/internal/ingest"
	"stat4/internal/stat4p4"
)

const (
	// window bounds the frames written but not yet consumed. It sits under
	// the slab's 256 blocks even if every batch flushed a quarter full, so
	// ServeConn's shedding Add never has cause to shed.
	window = 16384
	// burstFrames is one latency probe: a write far below a batch, so the
	// per-burst fixed costs are not amortised.
	burstFrames = 32
	// idleNap is how long the bulk generator sleeps when the window is full.
	// It must sleep, not spin: a Gosched spin starves the netpoller of the P
	// it needs to wake the ServeConn reader. Timers on a small VM are coarse
	// (this sleeps about 0.5 ms), still well inside the window's depth.
	idleNap = 100 * time.Microsecond
)

// rig is one running datapath wired the way cmd/stat4d wires it, with one
// generator connection over a unix-domain socket served by ServeConn.
type rig struct {
	sr     *stat4p4.ShardedRuntime
	e      *ingest.Engine
	ln     net.Listener
	conn   net.Conn
	served chan error
	sock   string
}

func newRig(w *workload, sockDir string) (*rig, error) {
	sr, err := w.datapath()
	if err != nil {
		return nil, err
	}
	r := &rig{sr: sr, e: ingest.New(sr, ingest.Config{}), served: make(chan error, 1)}
	r.sock = fmt.Sprintf("%s/blast-%d.sock", sockDir, os.Getpid())
	_ = os.Remove(r.sock)
	if r.ln, err = net.Listen("unix", r.sock); err != nil {
		r.stop()
		return nil, err
	}
	go func() {
		c, err := r.ln.Accept()
		if err != nil {
			r.served <- err
			return
		}
		_, err = r.e.ServeConn(c)
		c.Close()
		r.served <- err
	}()
	if r.conn, err = net.Dial("unix", r.sock); err != nil {
		r.ln.Close()
		<-r.served
		r.stop()
		return nil, err
	}
	return r, nil
}

// close is the daemon's drain sequence: end the stream, wait for ServeConn to
// return, stop the engine, close the runtime.
func (r *rig) close() error {
	r.conn.Close()
	err := <-r.served
	r.ln.Close()
	r.stop()
	return err
}

func (r *rig) stop() {
	r.e.Stop()
	r.sr.Close()
	_ = os.Remove(r.sock)
}

// feeder is the closed-loop generator: it writes pre-encoded records to the
// rig's socket and watches the engine's public counters for completion.
type feeder struct {
	tr   *trace
	r    *rig
	next int    // next record within the lap
	lap  uint64 // laps completed

	offered uint64
	writes  time.Duration // time spent inside conn.Write
}

// done counts frames the engine has accounted for, consumed or shed.
func (f *feeder) done() uint64 {
	_, shed := f.r.e.Shed()
	return f.r.e.Frames() + shed
}

// send writes the next n records (n divides batchFrames, so a write never
// crosses a lap) stamped with the current lap's timestamps.
func (f *feeder) send(n int) error {
	lo, hi := f.next, f.next+n
	f.tr.stamp(lo, hi, f.lap)
	t0 := time.Now()
	_, err := f.r.conn.Write(f.tr.wire[f.tr.off[lo]:f.tr.off[hi]])
	f.writes += time.Since(t0)
	if err != nil {
		return err
	}
	f.offered += uint64(n)
	if f.next = hi; f.next == f.tr.n() {
		f.next, f.lap = 0, f.lap+1
	}
	return nil
}

// full reports whether the window has no room for one more batch.
func (f *feeder) full() bool { return f.offered-f.done()+batchFrames > window }

// admit blocks until the window has room for one more batch and books it,
// for callers that deliver the batch by some other way than the socket.
func (f *feeder) admit() {
	for f.full() {
		time.Sleep(idleNap)
	}
	f.offered += batchFrames
}

// drain waits until every offered frame is accounted for.
func (f *feeder) drain() error {
	deadline := time.Now().Add(20 * time.Second)
	for f.done() < f.offered {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d frames accounted after 20s", f.done(), f.offered)
		}
		time.Sleep(idleNap)
	}
	return nil
}

// laps pushes n whole laps through the socket under the window and drains:
// the verify pass.
func (f *feeder) laps(n uint64) error {
	for stop := f.lap + n; f.lap < stop; {
		if f.full() {
			time.Sleep(idleNap)
			continue
		}
		if err := f.send(batchFrames); err != nil {
			return err
		}
	}
	return f.drain()
}

// bulkResult is one bulk phase, measured between its first write and its
// deadline (the drain that follows is outside it). Rates and CPU costs are
// kept per tick. What a noisy neighbour does to a tick is one-sided - it only
// ever takes time away - so the run reports its best twentieth of ticks, the
// speed of the program when the host leaves it alone: across runs that reads
// two to three times steadier than the median tick.
type bulkResult struct {
	frames  uint64 // consumed inside the phase
	wall    time.Duration
	use     usage     // process CPU and context switches inside the phase
	rates   []float64 // consumed frames/s, per tick
	cpuNs   []float64 // process CPU ns per consumed frame, per tick
	written uint64
	writes  time.Duration
	blocked time.Duration // asleep against a full window
}

func (b *bulkResult) pps() float64 { return ranked(b.rates, 0.95) }

func (b *bulkResult) cpuNsPerPkt() float64 { return ranked(b.cpuNs, 0.05) }

func (b *bulkResult) writeNsPerPkt() float64 { return float64(b.writes) / float64(b.written) }

func (b *bulkResult) windowFullFrac() float64 { return float64(b.blocked) / float64(b.wall) }

// bulk keeps the window full for d, in batch-sized writes, closing a tick
// every tick of wall time, then drains.
func (f *feeder) bulk(d, tick time.Duration) (bulkResult, error) {
	var res bulkResult
	e := f.r.e
	start := time.Now()
	use0, frames0 := readUsage(), e.Frames()
	offered0, writes0 := f.offered, f.writes
	tickAt, tickUse, tickFrames := start, use0, frames0
	for now := start; now.Sub(start) < d; now = time.Now() {
		if since := now.Sub(tickAt); since >= tick {
			use, fr := readUsage(), e.Frames()
			if n := float64(fr - tickFrames); n > 0 {
				res.rates = append(res.rates, n/since.Seconds())
				res.cpuNs = append(res.cpuNs, float64(use.cpu-tickUse.cpu)/n)
			}
			tickAt, tickUse, tickFrames = now, use, fr
		}
		if f.full() {
			time.Sleep(idleNap)
			res.blocked += time.Since(now)
			continue
		}
		if err := f.send(batchFrames); err != nil {
			return res, err
		}
	}
	res.wall = time.Since(start)
	res.use = readUsage().sub(use0)
	res.frames = e.Frames() - frames0
	res.written, res.writes = f.offered-offered0, f.writes-writes0
	return res, f.drain()
}

// burst sends one burstFrames write at a time for d and times each from its
// first byte to the engine accounting for all of it. The wait spins with
// Gosched because a sleep is ten times coarser than the latency measured;
// the spin's known cost is a scheduler-owned tail (see README), one reason
// only the fast decile is gated.
func (f *feeder) burst(d time.Duration) ([]float64, error) {
	if err := f.drain(); err != nil {
		return nil, err
	}
	var us []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := f.send(burstFrames); err != nil {
			return us, err
		}
		for f.done() < f.offered {
			if time.Since(t0) > 20*time.Second {
				return us, fmt.Errorf("burst: %d of %d frames accounted after 20s", f.done(), f.offered)
			}
			runtime.Gosched()
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	return us, nil
}

// quantile reads q from ascending xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// ranked reads q from unsorted xs.
func ranked(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return ranked(xs, 0.5) }
