package ring

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestSPSCWrapAround pushes and pops across many laps of a tiny ring so
// every slot index wraps repeatedly, checking strict FIFO order throughout.
func TestSPSCWrapAround(t *testing.T) {
	r := NewSPSC(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	var d Desc
	seq := uint64(0)
	want := uint64(0)
	for lap := 0; lap < 64; lap++ {
		// Fill to a varying level, then drain, so head/tail cross the
		// capacity boundary at every offset.
		level := 1 + lap%4
		for i := 0; i < level; i++ {
			if !r.TryPush(Desc{Seq: seq, Block: uint32(seq), N: uint32(lap)}) {
				t.Fatalf("lap %d: push %d failed at occupancy %d", lap, seq, r.Len())
			}
			seq++
		}
		for i := 0; i < level; i++ {
			if !r.TryPop(&d) {
				t.Fatalf("lap %d: pop failed at occupancy %d", lap, r.Len())
			}
			if d.Seq != want || d.Block != uint32(want) {
				t.Fatalf("lap %d: popped seq %d, want %d", lap, d.Seq, want)
			}
			want++
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", r.Len())
	}
}

// TestSPSCFullEmpty pins the backpressure contract: a full ring refuses the
// push (without disturbing its contents), an empty ring refuses the pop.
func TestSPSCFullEmpty(t *testing.T) {
	r := NewSPSC(2)
	var d Desc
	if r.TryPop(&d) {
		t.Fatal("TryPop succeeded on an empty ring")
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.TryPush(Desc{Seq: uint64(i)}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.TryPush(Desc{Seq: 99}) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	if r.Len() != r.Cap() {
		t.Fatalf("Len() = %d, want %d", r.Len(), r.Cap())
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.TryPop(&d) || d.Seq != uint64(i) {
			t.Fatalf("pop %d: got (%v, seq %d)", i, d, d.Seq)
		}
	}
	if r.TryPop(&d) {
		t.Fatal("TryPop succeeded after drain")
	}
}

// TestMPSCFullEmpty is the same contract on the multi-producer ring.
func TestMPSCFullEmpty(t *testing.T) {
	r := NewMPSC(2)
	var d Desc
	if r.TryPop(&d) {
		t.Fatal("TryPop succeeded on an empty ring")
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.TryPush(Desc{Seq: uint64(i)}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.TryPush(Desc{Seq: 99}) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.TryPop(&d) || d.Seq != uint64(i) {
			t.Fatalf("pop %d: got seq %d", i, d.Seq)
		}
	}
	// After a full lap the ring must accept pushes again (sequence words
	// advanced one capacity).
	if !r.TryPush(Desc{Seq: 7}) {
		t.Fatal("TryPush failed after a full drain lap")
	}
}

// TestSPSCConcurrent runs one producer against one consumer (the shard
// handoff shape) under the race detector, with backpressure on both sides.
func TestSPSCConcurrent(t *testing.T) {
	const total = 100000
	r := NewSPSC(8)
	p := NewParker()
	done := make(chan error, 1)
	go func() {
		var d Desc
		want := uint64(0)
		for want < total {
			if !SpinPops(64, func() bool { return r.TryPop(&d) }) {
				p.Park(func() bool { return r.Len() > 0 })
				continue
			}
			if d.Seq != want {
				done <- fmt.Errorf("popped seq %d, want %d", d.Seq, want)
				return
			}
			want++
		}
		done <- nil
	}()
	for seq := uint64(0); seq < total; {
		if r.TryPush(Desc{Seq: seq}) {
			p.Unpark()
			seq++
		} else {
			runtime.Gosched() // let the consumer drain (essential on one core)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMPSCConcurrent runs several producers against one consumer under the
// race detector and checks per-producer FIFO order plus exact delivery
// (pushes are retried, so nothing is shed and every item must arrive).
func TestMPSCConcurrent(t *testing.T) {
	const (
		producers = 4
		perProd   = 25000
	)
	r := NewMPSC(8)
	p := NewParker()
	var wg sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid uint64) {
			defer wg.Done()
			for i := uint64(0); i < perProd; {
				if r.TryPush(Desc{Seq: pid<<32 | i}) {
					p.Unpark()
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(uint64(pid))
	}
	lastSeen := make([]int64, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	var d Desc
	received := 0
	for received < producers*perProd {
		if !SpinPops(64, func() bool { return r.TryPop(&d) }) {
			p.Park(func() bool { return r.Len() > 0 })
			continue
		}
		pid := d.Seq >> 32
		seq := int64(d.Seq & 0xffffffff)
		if pid >= producers {
			t.Fatalf("popped unknown producer %d", pid)
		}
		if seq <= lastSeen[pid] {
			t.Fatalf("producer %d: seq %d after %d — per-producer FIFO broken", pid, seq, lastSeen[pid])
		}
		lastSeen[pid] = seq
		received++
	}
	wg.Wait()
	for pid, last := range lastSeen {
		if last != perProd-1 {
			t.Fatalf("producer %d: last seq %d, want %d", pid, last, perProd-1)
		}
	}
}

// TestSlabAcquireRelease covers exhaustion, reuse and the in-use gauge.
func TestSlabAcquireRelease(t *testing.T) {
	s := NewSlab(3, 64)
	if s.Blocks() != 3 || s.BlockSize() != 64 {
		t.Fatalf("geometry = %d x %d", s.Blocks(), s.BlockSize())
	}
	var held []uint32
	for i := 0; i < 3; i++ {
		idx, ok := s.TryAcquire()
		if !ok {
			t.Fatalf("acquire %d failed with %d blocks free", i, 3-i)
		}
		for _, h := range held {
			if h == idx {
				t.Fatalf("block %d handed out twice", idx)
			}
		}
		held = append(held, idx)
	}
	if _, ok := s.TryAcquire(); ok {
		t.Fatal("acquire succeeded on an exhausted slab")
	}
	if s.InUse() != 3 {
		t.Fatalf("InUse() = %d, want 3", s.InUse())
	}
	s.Release(held[1])
	if idx, ok := s.TryAcquire(); !ok || idx != held[1] {
		t.Fatalf("re-acquire after release: got (%d, %v), want (%d, true)", idx, ok, held[1])
	}
	// Block storage is disjoint.
	a, b := s.Bytes(held[0]), s.Bytes(held[2])
	for i := range a {
		a[i] = 0xaa
	}
	for _, v := range b {
		if v == 0xaa {
			t.Fatal("blocks share storage")
		}
	}
	// ... for appends too: a frame larger than a block is refused, not
	// spilled into the neighbouring blocks.
	for _, idx := range held {
		if _, ok := AppendFrame(s.Bytes(idx)[:0], 1, 1, bytes.Repeat([]byte{0xbb}, 64)); ok {
			t.Fatalf("a %d-byte record fit block %d of %d bytes", FrameHdrLen+64, idx, s.BlockSize())
		}
	}
}

// TestSlabConcurrent races acquires and releases across goroutines; every
// handle must stay exclusively owned (checked with a per-block owner mark).
func TestSlabConcurrent(t *testing.T) {
	const (
		workers = 4
		rounds  = 20000
	)
	s := NewSlab(workers, 16)
	var wg sync.WaitGroup
	fail := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				idx, ok := s.TryAcquire()
				if !ok {
					runtime.Gosched()
					continue
				}
				b := s.Bytes(idx)
				b[0] = mark
				if b[0] != mark {
					fail <- fmt.Errorf("block %d stolen mid-hold", idx)
					s.Release(idx)
					return
				}
				s.Release(idx)
			}
		}(byte(w + 1))
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if s.InUse() != 0 {
		t.Fatalf("InUse() = %d after all releases, want 0", s.InUse())
	}
}

// TestFrameRecordRoundTrip pins the record layout both ways, including the
// capacity refusal and the malformed-length early stop.
func TestFrameRecordRoundTrip(t *testing.T) {
	buf := make([]byte, 0, 128)
	frames := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		{},
		bytes.Repeat([]byte{3}, 40),
	}
	for i, f := range frames {
		var ok bool
		buf, ok = AppendFrame(buf, uint64(100+i), uint16(i), f)
		if !ok {
			t.Fatalf("frame %d did not fit with %d bytes free", i, cap(buf)-len(buf))
		}
	}
	if _, ok := AppendFrame(buf, 0, 0, bytes.Repeat([]byte{9}, 128)); ok {
		t.Fatal("AppendFrame grew past capacity")
	}
	it := NewFrameIter(buf, uint32(len(frames)))
	for i, f := range frames {
		ts, port, frame, ok := it.Next()
		if !ok {
			t.Fatalf("iter stopped at frame %d", i)
		}
		if ts != uint64(100+i) || port != uint16(i) || !bytes.Equal(frame, f) {
			t.Fatalf("frame %d: got ts=%d port=%d len=%d", i, ts, port, len(frame))
		}
	}
	if _, _, _, ok := it.Next(); ok {
		t.Fatal("iter yielded past the declared count")
	}

	// A record whose length field overruns the buffer ends the walk.
	bad := make([]byte, 0, 64)
	bad, _ = AppendFrame(bad, 1, 1, []byte{1, 2, 3})
	bad[10] = 0xff // corrupt the length field
	bad[11] = 0xff
	it = NewFrameIter(bad, 1)
	if _, _, _, ok := it.Next(); ok {
		t.Fatal("iter yielded a record that overruns the block")
	}
}

// TestRingOpsZeroAlloc pins the ingest plane's hot ops at zero allocations.
func TestRingOpsZeroAlloc(t *testing.T) {
	spsc := NewSPSC(8)
	mpsc := NewMPSC(8)
	slab := NewSlab(2, 256)
	frame := bytes.Repeat([]byte{7}, 60)
	var d Desc
	assert := func(name string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(200, f); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
		}
	}
	assert("spsc push+pop", func() {
		spsc.TryPush(Desc{Seq: 1})
		spsc.TryPop(&d)
	})
	assert("mpsc push+pop", func() {
		mpsc.TryPush(Desc{Seq: 1})
		mpsc.TryPop(&d)
	})
	assert("slab acquire+append+iter+release", func() {
		idx, _ := slab.TryAcquire()
		buf, _ := AppendFrame(slab.Bytes(idx)[:0], 1, 1, frame)
		it := NewFrameIter(buf, 1)
		it.Next()
		slab.Release(idx)
	})
}

