//go:build linux && !race

package p4

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cellMap owns one switch's register mapping: anonymous memory the kernel
// backs with its shared zero page until a cell on a page is first written,
// so a switch's construction writes no cell and only the pages the data or
// control plane writes become resident. Every Register of the switch points
// to it; when none is reachable its finalizer unmaps the memory. It holds no
// pointers, so it can sit in no cycle that would keep the finalizer from
// running; at 16 bytes it is just past the tiny allocator, which may batch
// smaller pointer-free objects so that their finalizers never run.
// ShardedSwitch.Close does not unmap: the control-plane accessors stay
// usable after it.
//
// The race build uses the heap instead (vmem_heap.go): the race detector
// does not see memory outside the Go heap, and the register cells are what
// its concurrency tests check.
type cellMap struct {
	addr, size uintptr
}

// mapCells maps n zeroed cells, or returns nil if the kernel refuses (n = 0
// included), leaving the caller to the heap. It calls SYS_MMAP directly
// rather than through syscall.Mmap, whose bookkeeping would add code ahead
// of the datapath in the binary and shift (*Switch).run.
func mapCells(n int) ([]uint64, *cellMap) {
	size := uintptr(n) * 8
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS, ^uintptr(0), 0)
	if errno != 0 {
		return nil, nil
	}
	m := &cellMap{addr: addr, size: size}
	mappedBytes.Add(int64(size))
	runtime.SetFinalizer(m, (*cellMap).unmap)
	return unsafe.Slice((*uint64)(*(*unsafe.Pointer)(unsafe.Pointer(&addr))), n), m
}

func (m *cellMap) unmap() {
	syscall.Syscall(syscall.SYS_MUNMAP, m.addr, m.size, 0)
	mappedBytes.Add(-int64(m.size))
}

// mallocgc is the runtime's allocator. Its source keeps the signature fixed
// because widely used packages link to it like this; a nil type with
// needzero false asks for pointer-free memory nobody clears first.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// snapshotCells returns n cells that read zero: one pointer-free block the
// garbage collector owns, so that it stays alive while any slice into it is
// reachable (a snapshot's Registers may outlive the Snapshot). The runtime
// does not pre-zero it; instead madvise(MADV_DONTNEED) drops its whole pages,
// which then read as the kernel's zero page and become resident only where
// they are written, and only the partial pages at its two ends are cleared
// by hand.
func snapshotCells(n int) []uint64 {
	if n == 0 {
		return nil
	}
	p := mallocgc(uintptr(n)*8, nil, false)
	cells := unsafe.Slice((*uint64)(p), n)
	page := uintptr(syscall.Getpagesize())
	base := uintptr(p)
	lo := (base + page - 1) &^ (page - 1)
	hi := (base + uintptr(n)*8) &^ (page - 1)
	if lo < hi {
		if _, _, errno := syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_DONTNEED); errno == 0 {
			clear(cells[:(lo-base)/8])
			clear(cells[(hi-base)/8:])
			return cells
		}
	}
	clear(cells)
	return cells
}
