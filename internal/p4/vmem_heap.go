//go:build !linux || race

package p4

// cellMap is empty where registers live on the heap: off Linux, and in race
// builds, whose detector watches only heap memory (see vmem_mmap.go).
type cellMap struct{}

// mapCells maps nothing here: newSwitch allocates the cells on the heap.
func mapCells(int) ([]uint64, *cellMap) { return nil, nil }

// snapshotCells allocates a snapshot's cells as one zeroed heap slice.
func snapshotCells(n int) []uint64 { return make([]uint64, n) }
