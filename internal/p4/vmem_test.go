package p4

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
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

// writeEvery writes v(c) into every step-th cell of the shard's counters.
func writeEvery(t *testing.T, sw *Switch, step int, v func(int) uint64) {
	t.Helper()
	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(reg.cells); c += step {
		if err := reg.WriteCell(c, v(c)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotCellsOutliveTheSnapshot keeps only a slice of a snapshot's
// Registers, as ranging over them does, and lets the collector and the
// finalizers run: the cells are the collector's, so the slice alone keeps
// them, and a block freed under it would be overwritten by the garbage
// allocated after.
func TestSnapshotCellsOutliveTheSnapshot(t *testing.T) {
	const cells = 1 << 16
	ss := bigCounterSwitch(t, cells)
	defer ss.Close()
	val := func(c int) uint64 { return uint64(c) + 1 }
	writeEvery(t, ss.Shard(0), 97, val)
	kept := ss.Shard(0).Snapshot().Registers["counters"] // the Snapshot is garbage from here on
	for i := 0; i < 2; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond) // finalizers run on their own goroutine
	}
	for i := 0; i < 4; i++ {
		junk := make([]uint64, cells)
		for j := range junk {
			junk[j] = ^uint64(0)
		}
		runtime.KeepAlive(junk)
	}
	for c, v := range kept {
		want := uint64(0)
		if c%97 == 0 {
			want = val(c)
		}
		if v != want {
			t.Fatalf("kept cell %d reads %#x, want %d", c, v, want)
		}
	}
}

// TestSnapshotOverDirtyHeap takes snapshots right after a large slice full
// of ones is freed, so their blocks are likely to be that memory: every cell
// the register holds zero must still read zero, on whole pages and on the
// partial pages at the block's ends, plain and merged.
func TestSnapshotOverDirtyHeap(t *testing.T) {
	for _, cells := range []int{100, 1<<16 + 3} {
		ss := bigCounterSwitch(t, cells)
		writeEvery(t, ss.Shard(0), 1001, func(c int) uint64 { return uint64(c) + 5 })
		want := make([]uint64, cells)
		for c := 0; c < cells; c += 1001 {
			want[c] = uint64(c) + 5
		}
		for _, snap := range []func() *Snapshot{ss.Shard(0).Snapshot, ss.MergedSnapshot} {
			dirty := make([]uint64, 2*cells)
			for i := range dirty {
				dirty[i] = ^uint64(0)
			}
			runtime.KeepAlive(dirty)
			dirty = nil
			runtime.GC()
			got := snap().Registers["counters"]
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%d cells: cell %d reads %#x, want %d", cells, c, got[c], want[c])
				}
			}
		}
		ss.Close()
	}
}

// residentBytes is the process's VmRSS, from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(b))
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestSnapshotCostsWrittenPages pins what a copy of the registers makes
// resident: on a two-shard switch with a 16 MiB counter register in which two
// cells were written, a snapshot and a reset of a stripe nobody wrote each
// add under 1 MiB of RSS, and a merged snapshot adds about nothing for a
// 16 MiB MergeDerived register whose every cell shard 0 wrote. Each step
// runs over freed, dirty heap memory of a snapshot's size, so a block the
// runtime pre-zeroes fails it.
func TestSnapshotCostsWrittenPages(t *testing.T) {
	if !mapsRegisters {
		t.Skip("registers and snapshots are plain heap slices in this build")
	}
	const cells = 1 << 21
	p, std := buildCounterProgram()
	p.Registers[0].Cells = cells
	p.AddRegister("derived", cells, 64)
	p.SetRegisterMerge("derived", MergeDerived)
	ss, err := NewShardedSwitch(p, std, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sw := ss.Shard(0)
	counters, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := sw.Register("derived")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, cells - 1} {
		if err := counters.WriteCell(c, uint64(c)+3); err != nil {
			t.Fatal(err)
		}
	}
	for c := range derived.cells {
		derived.cells[c] = 1
	}
	grew := func(f func()) int64 {
		// Free a block of a snapshot's size full of ones and return its
		// pages to the OS, as the block of a dropped snapshot is: the
		// runtime hands it out again, and a block it zeroed before use
		// would make every page resident again.
		dirty := make([]uint64, 2*cells)
		for i := range dirty {
			dirty[i] = ^uint64(0)
		}
		runtime.KeepAlive(dirty)
		dirty = nil
		runtime.GC()
		debug.FreeOSMemory()
		before := residentBytes(t)
		f()
		return residentBytes(t) - before
	}

	var snap *Snapshot
	if g := grew(func() { snap = ss.MergedSnapshot() }); g >= 256<<10 {
		t.Fatalf("a merged snapshot added %d resident bytes, want about none", g)
	}
	got := snap.Registers["counters"]
	if got[0] != 3 || got[cells-1] != cells+2 || snap.Registers["derived"][cells/2] != 0 {
		t.Fatalf("merged snapshot reads %d, %d and derived %d", got[0], got[cells-1], snap.Registers["derived"][cells/2])
	}
	// The derived register is all written, so shard 1's plain snapshot
	// copies only the two counters it does not hold.
	if g := grew(func() { snap = ss.Shard(1).Snapshot() }); g >= 1<<20 {
		t.Fatalf("a snapshot of unwritten registers added %d resident bytes, want under 1 MiB", g)
	}
	if g := grew(func() {
		if err := ss.SetStripe(1, 4, 0); err != nil {
			t.Fatal(err)
		}
	}); g >= 1<<20 {
		t.Fatalf("resetting a stripe nobody wrote on shard 1 added %d resident bytes, want under 1 MiB", g)
	}
	runtime.KeepAlive(snap)
}

// TestSetStripe sets one stripe of every register on every shard, masked to
// the register's width, and leaves the rest as they were.
func TestSetStripe(t *testing.T) {
	p, std := buildCounterProgram()
	p.AddRegister("narrow", 8, 4)
	ss, err := NewShardedSwitch(p, std, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < 2; i++ {
		writeEvery(t, ss.Shard(i), 1, func(c int) uint64 { return uint64(c + 1) })
	}
	if err := ss.SetStripe(2, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStripe(3, 4, 0x35); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		snap := ss.Shard(i).Snapshot()
		for c, v := range snap.Registers["counters"] {
			want := uint64(c + 1)
			switch {
			case c >= 32 && c < 48:
				want = 0
			case c >= 48:
				want = 0x35
			}
			if v != want {
				t.Fatalf("shard %d counters[%d] reads %#x, want %#x", i, c, v, want)
			}
		}
		if got := snap.Registers["narrow"]; got[5] != 0 || got[6] != 5 || got[7] != 5 {
			t.Fatalf("shard %d: 4-bit register reads %v, want 0 then 0x35 masked to 5", i, got)
		}
	}
	for _, bad := range [][2]int{{-1, 4}, {4, 4}, {0, 0}} {
		if err := ss.SetStripe(bad[0], bad[1], 0); err == nil {
			t.Fatalf("SetStripe(%d, %d) accepted", bad[0], bad[1])
		}
	}
}
