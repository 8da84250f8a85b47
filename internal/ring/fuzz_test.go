package ring

import "testing"

// FuzzRingFIFO drives both ring flavours through an arbitrary push/pop
// schedule against a plain slice model: every accepted push must come back
// out exactly once, in order, and full/empty refusals must match the
// model's occupancy. Byte n of the input decides operation n (low bit:
// push/pop; remaining bits salt the pushed value), so the fuzzer explores
// wrap-around and full/empty boundaries at every offset.
func FuzzRingFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1})
	f.Add([]byte{0, 2, 4, 6, 1, 3, 5, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		spsc := NewSPSC(4)
		mpsc := NewMPSC(4)
		var model []Desc
		seq := uint64(0)
		var d Desc
		for i, op := range ops {
			if op&1 == 0 {
				want := len(model) < spsc.Cap()
				push := Desc{Seq: seq, Block: uint32(op), N: uint32(i)}
				gotS := spsc.TryPush(push)
				gotM := mpsc.TryPush(push)
				if gotS != want || gotM != want {
					t.Fatalf("op %d: push accepted (spsc=%v, mpsc=%v), want %v at occupancy %d",
						i, gotS, gotM, want, len(model))
				}
				if want {
					model = append(model, push)
					seq++
				}
			} else {
				want := len(model) > 0
				gotS := spsc.TryPop(&d)
				if gotS != want {
					t.Fatalf("op %d: spsc pop ok=%v, want %v at occupancy %d", i, gotS, want, len(model))
				}
				if want && d != model[0] {
					t.Fatalf("op %d: spsc popped %+v, want %+v", i, d, model[0])
				}
				gotM := mpsc.TryPop(&d)
				if gotM != want {
					t.Fatalf("op %d: mpsc pop ok=%v, want %v at occupancy %d", i, gotM, want, len(model))
				}
				if want {
					if d != model[0] {
						t.Fatalf("op %d: mpsc popped %+v, want %+v", i, d, model[0])
					}
					model = model[1:]
				}
			}
			if spsc.Len() != len(model) || mpsc.Len() != len(model) {
				t.Fatalf("op %d: Len spsc=%d mpsc=%d, model %d", i, spsc.Len(), mpsc.Len(), len(model))
			}
		}
	})
}

// FuzzSlab drives one slab through an arbitrary acquire/release schedule
// against a model of who holds what. The first byte sets the block count;
// each later byte is one step, chosen by its low two bits:
//
//	0: acquire — succeeds exactly when the model has a free block, with a
//	   block nobody holds;
//	1: release one held block, picked by the byte's high bits;
//	2: release one and acquire — the LIFO free list hands the same block
//	   back, and no storage is made for it;
//	3: release one and acquire twice — a double-hold attempt on the freed
//	   block: the second acquirer must get a different block or none.
//
// After every step no block is held twice, each held block still carries
// its holder's mark in every byte of its BlockSize storage, the blocks with
// storage are at most the distinct blocks ever acquired and at most
// Blocks(), and InUse matches the model.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 2, 3, 1, 0, 3})
	f.Add([]byte{5, 0, 4, 0, 8, 3, 7, 2, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const size = 8
		blocks := 1 + int(ops[0]%7)
		s := NewSlab(blocks, size)
		mark := map[uint32]byte{} // held block -> its holder's mark
		ever := map[uint32]bool{}
		var held []uint32
		next := byte(0)
		acquire := func(step int) (uint32, bool) {
			idx, ok := s.TryAcquire()
			if ok != (len(held) < blocks) {
				t.Fatalf("step %d: acquire ok=%v with %d of %d blocks held", step, ok, len(held), blocks)
			}
			if !ok {
				return 0, false
			}
			if _, dup := mark[idx]; dup {
				t.Fatalf("step %d: block %d handed out while held", step, idx)
			}
			next++
			b := s.Bytes(idx)
			for j := range b {
				b[j] = next
			}
			mark[idx], ever[idx] = next, true
			held = append(held, idx)
			return idx, true
		}
		release := func(sel byte) (uint32, bool) {
			if len(held) == 0 {
				return 0, false
			}
			i := int(sel) % len(held)
			idx := held[i]
			held = append(held[:i], held[i+1:]...)
			delete(mark, idx)
			s.Release(idx)
			return idx, true
		}
		for step, op := range ops[1:] {
			switch op & 3 {
			case 0:
				acquire(step)
			case 1:
				release(op >> 2)
			case 2, 3:
				freed, ok := release(op >> 2)
				if !ok {
					break
				}
				before := materialised(s)
				if idx, _ := acquire(step); idx != freed {
					t.Fatalf("step %d: released block %d, reacquired %d", step, freed, idx)
				}
				if n := materialised(s); n != before {
					t.Fatalf("step %d: reacquiring block %d materialised %d blocks", step, freed, n-before)
				}
				if op&3 == 3 {
					acquire(step) // must not hand out freed again
				}
			}
			for idx, m := range mark {
				b := s.Bytes(idx)
				if len(b) != size || cap(b) != size {
					t.Fatalf("step %d: block %d: len %d cap %d, want %d", step, idx, len(b), cap(b), size)
				}
				for _, v := range b {
					if v != m {
						t.Fatalf("step %d: held block %d overwritten (%d, want %d)", step, idx, v, m)
					}
				}
			}
			if n := materialised(s); n > len(ever) || n > s.Blocks() {
				t.Fatalf("step %d: %d blocks materialised, %d ever acquired, %d in the slab", step, n, len(ever), s.Blocks())
			}
			if s.InUse() != uint64(len(held)) {
				t.Fatalf("step %d: InUse() = %d, model holds %d", step, s.InUse(), len(held))
			}
		}
	})
}
