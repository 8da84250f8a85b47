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
