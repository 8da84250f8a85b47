package p4

import (
	"runtime"
	"testing"
	"time"

	"stat4/internal/packet"
)

// mapsRegisters is whether this build backs registers with a mapping: on
// Linux, except under the race detector (vmem_mmap.go).
const mapsRegisters = runtime.GOOS == "linux" && !raceEnabled

// bigCounterSwitch is a one-shard switch of buildCounterProgram with its
// counter register grown to cells cells.
func bigCounterSwitch(t *testing.T, cells int) *ShardedSwitch {
	t.Helper()
	p, std := buildCounterProgram()
	p.Registers[0].Cells = cells
	return mustSwitch(t, p, std)
}

// TestRegistersCostNoHeap builds a switch with a 16 MiB register: mapped,
// its cells cost no heap; on the heap path they cost all of it. Either way
// the first and last cell take writes from the control plane and from a
// packet.
func TestRegistersCostNoHeap(t *testing.T) {
	const cells = 1 << 21
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ss := bigCounterSwitch(t, cells)
	defer ss.Close()
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	if mapsRegisters && grew >= 1<<20 {
		t.Fatalf("building the switch allocated %d heap bytes, want under 1 MiB: its cells are not mapped", grew)
	}
	if !mapsRegisters && grew < cells*8 {
		t.Fatalf("building the switch allocated %d heap bytes, want the register's %d on the heap path", grew, cells*8)
	}

	sw := ss.Shard(0)
	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if mapped := reg.mem != nil; mapped != mapsRegisters {
		t.Fatalf("register mapped %v, want %v", mapped, mapsRegisters)
	}
	for _, idx := range []int{0, cells - 1} {
		if err := reg.WriteCell(idx, uint64(idx)+7); err != nil {
			t.Fatal(err)
		}
	}
	// 10.0.5.0/24 counts into the first cell, the rest of 10/8 into the last.
	for _, e := range []struct {
		ip   packet.IP4
		plen int
		cell uint64
	}{{packet.ParseIP4(10, 0, 5, 0), 24, 0}, {packet.ParseIP4(10, 0, 0, 0), 8, cells - 1}} {
		if _, err := ss.InsertEntry("bind", []MatchValue{{Value: uint64(e.ip), PrefixLen: e.plen}}, 0, "count_at", []uint64{e.cell}); err != nil {
			t.Fatal(err)
		}
	}
	ss.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 5, 6)))
	ss.ProcessFrame(1, 1, udpTo(packet.ParseIP4(10, 9, 9, 9)))
	for _, idx := range []int{0, cells - 1} {
		if v, err := reg.Read(idx); err != nil || v != uint64(idx)+8 {
			t.Fatalf("cell %d reads %d (%v), want %d", idx, v, err, idx+8)
		}
	}
	if st := sw.Stats(); st.RuntimeErrors != 0 {
		t.Fatalf("%d runtime errors", st.RuntimeErrors)
	}
}

// TestRegisterMappingsReleased drops 32 switches whose every cell was
// written and waits for their mappings to be unmapped.
func TestRegisterMappingsReleased(t *testing.T) {
	const switches, cells = 32, 1 << 16
	settle := func(want func(int64) bool) int64 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			runtime.GC()
			n := mappedBytes.Load()
			if want(n) || time.Now().After(deadline) {
				return n
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	start := settle(func(int64) bool { return true })

	sws := make([]*ShardedSwitch, switches)
	for i := range sws {
		sws[i] = bigCounterSwitch(t, cells)
		reg, err := sws[i].Shard(0).Register("counters")
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cells; c++ {
			if err := reg.WriteCell(c, uint64(c)); err != nil {
				t.Fatal(err)
			}
		}
		sws[i].Close()
	}
	held := mappedBytes.Load() - start
	if !mapsRegisters && held != 0 {
		t.Fatalf("heap-path build mapped %d bytes", held)
	}
	if want := int64(switches * cells * 8); mapsRegisters && held < want {
		t.Fatalf("%d switches hold %d mapped bytes, want at least %d", switches, held, want)
	}
	runtime.KeepAlive(sws) // the switches are unreachable from here on

	if n := settle(func(n int64) bool { return n <= start }); n > start {
		t.Fatalf("after dropping the switches %d mapped bytes remain, %d before them", n, start)
	}
}
