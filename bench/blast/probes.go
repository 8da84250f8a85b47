package main

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stat4/internal/ingest"
	"stat4/internal/ring"
)

// sink keeps the compiler from discarding probe results.
var sink uint64

// sampler is what watches the traced run: at 20 Hz an Engine.Stats cut and a
// timed no-op Engine.Do, and once a second a WriteProm scrape.
type sampler struct {
	quit chan struct{}
	wg   sync.WaitGroup

	depth     []float64 // ring depth per sample, sorted by stop
	blocksMax uint64
	doUs      []float64
	promMs    []float64
}

func startSampler(e *ingest.Engine) *sampler {
	s := &sampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			st := e.Stats()
			s.depth = append(s.depth, float64(st.RingDepth))
			s.blocksMax = max(s.blocksMax, st.BlocksInUse)
			t0 := time.Now()
			e.Do(func() {})
			s.doUs = append(s.doUs, float64(time.Since(t0))/1e3)
			if n%20 == 0 {
				t0 = time.Now()
				if err := e.WriteProm(io.Discard); err != nil {
					panic(err) // io.Discard cannot fail; the registry only reports write errors
				}
				s.promMs = append(s.promMs, float64(time.Since(t0))/1e6)
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	s.wg.Wait()
	sort.Float64s(s.depth)
}

// ringProbes times the lock-free primitives across two goroutines: an MPSC
// push/pop pair, the same with a slab block acquired by the pusher and
// released by the popper, and a Parker wake-up of a goroutine that has really
// gone to sleep.
func ringProbes(ops int) (mpscNs, slabNs, parkUs float64) {
	handoff := func(withSlab bool) float64 {
		q := ring.NewMPSC(256)
		slab := ring.NewSlab(256, 64)
		var wg sync.WaitGroup
		wg.Add(1)
		t0 := time.Now()
		go func() {
			defer wg.Done()
			var d ring.Desc
			for got := 0; got < ops; {
				if !q.TryPop(&d) {
					runtime.Gosched()
					continue
				}
				if withSlab {
					slab.Release(d.Block)
				}
				got++
			}
		}()
		for sent := 0; sent < ops; {
			var d ring.Desc
			if withSlab {
				idx, ok := slab.TryAcquire()
				if !ok {
					runtime.Gosched()
					continue
				}
				d.Block = idx
			}
			for !q.TryPush(d) {
				runtime.Gosched()
			}
			sent++
		}
		wg.Wait()
		return float64(time.Since(t0)) / float64(ops)
	}
	mpscNs = handoff(false)
	slabNs = max(0, handoff(true)-mpscNs)

	// The waker busy-waits long enough for the sleeper to block in Park,
	// stamps the clock, and unparks it; the sleeper reads the clock on waking.
	const rounds = 2000
	sleeper, waker := ring.NewParker(), ring.NewParker()
	var turn atomic.Int32 // 1: sleeper's, 0: waker's
	var stamp atomic.Int64
	epoch := time.Now()
	woke := make([]float64, 0, rounds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for turn.Load() != 1 {
				sleeper.Park(func() bool { return turn.Load() == 1 })
			}
			woke = append(woke, float64(int64(time.Since(epoch))-stamp.Load())/1e3)
			turn.Store(0)
			waker.Unpark()
		}
	}()
	for i := 0; i < rounds; i++ {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
		stamp.Store(int64(time.Since(epoch)))
		turn.Store(1)
		sleeper.Unpark()
		for turn.Load() != 0 {
			waker.Park(func() bool { return turn.Load() == 0 })
		}
	}
	wg.Wait()
	return mpscNs, slabNs, median(woke)
}
