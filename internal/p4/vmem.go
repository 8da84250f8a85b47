package p4

import (
	"fmt"
	"unsafe"
)

// This file is the control plane's side of demand-zero memory: copies and
// stripe writes that read every cell but store only where the stored value
// would differ, so that the pages nobody wrote stay the kernel's zero page in
// the registers (vmem_mmap.go) and in their snapshots (snapshotCells). It
// sorts after the datapath's files, so its code sits behind theirs in a
// binary.

// chunkBytes is the unit a copy skips when its source is all zero: one
// 4 KiB page of the destination.
const chunkBytes = 4096

// chunkEnd is the end of the chunk of dst that starts at lo: the next index
// whose cell begins a 4 KiB page, or len(dst).
func chunkEnd(dst []uint64, lo int) int {
	addr := uintptr(unsafe.Pointer(&dst[lo]))
	return min(lo+int((chunkBytes-addr%chunkBytes)/8), len(dst))
}

// allZero reports whether every cell is zero.
func allZero(cells []uint64) bool {
	var or uint64
	for _, c := range cells {
		or |= c
	}
	return or == 0
}

// snapshotBlock returns the snapshotCells block a copy of every register
// fills. Its size depends only on the program, so the snapshot allocates it
// before it takes the pipeline lock.
func (sw *Switch) snapshotBlock() []uint64 {
	n := 0
	for _, rd := range sw.prog.Registers {
		n += rd.Cells
	}
	return snapshotCells(n)
}

// copyRegisters returns a copy of every register, laid out in block (from
// snapshotBlock) in declaration order. Each chunk of a register whose cells
// are all zero is left as the block has it, untouched; a MergeDerived
// register is left zero entirely when skipDerived is set.
func (sw *Switch) copyRegisters(block []uint64, skipDerived bool) map[string][]uint64 {
	regs := make(map[string][]uint64, len(sw.regs))
	for _, rd := range sw.prog.Registers {
		dst, src := block[:rd.Cells:rd.Cells], sw.regs[rd.Name].cells
		block = block[rd.Cells:]
		regs[rd.Name] = dst
		if skipDerived && rd.Merge == MergeDerived {
			continue
		}
		for lo := 0; lo < len(dst); {
			hi := chunkEnd(dst, lo)
			if !allZero(src[lo:hi]) {
				copy(dst[lo:hi], src[lo:hi])
			}
			lo = hi
		}
	}
	return regs
}

// addRegisters adds the switch's MergeSum registers into regs cell-wise,
// masked to each register's width, under one acquisition of its pipeline
// lock. It skips every chunk in which the switch's cells are all zero:
// adding zero leaves a masked cell as it is.
func (sw *Switch) addRegisters(regs map[string][]uint64) {
	sw.mu.Lock()
	for name, dst := range regs {
		r := sw.regs[name]
		if r.def.Merge == MergeDerived {
			continue
		}
		for lo := 0; lo < len(dst); {
			hi := chunkEnd(dst, lo)
			if src := r.cells[lo:hi]; !allZero(src) {
				for i, c := range src {
					dst[lo+i] = (dst[lo+i] + c) & r.mask
				}
			}
			lo = hi
		}
	}
	sw.mu.Unlock()
}

// SetStripe sets stripe i of every register on every shard to v, masked to
// each register's width: with stride = Cells/stripes, the cells
// [i·stride, (i+1)·stride). Each shard takes its pipeline lock once, and only
// cells that differ are stored to, so zeroing a stripe nobody wrote costs no
// page. The binaries only zero (Runtime.ResetSlot passes v = 0); a non-zero
// v exists for tests to seed register state with, and no program code
// should come to depend on it.
func (ss *ShardedSwitch) SetStripe(i, stripes int, v uint64) error {
	if stripes <= 0 || i < 0 || i >= stripes {
		return fmt.Errorf("p4: stripe %d of %d", i, stripes)
	}
	for _, sw := range ss.shards {
		sw.mu.Lock()
		for _, r := range sw.regs {
			stride, mv := len(r.cells)/stripes, v&r.mask
			cells := r.cells[i*stride : (i+1)*stride]
			for j, c := range cells {
				if c != mv {
					cells[j] = mv
				}
			}
		}
		sw.mu.Unlock()
	}
	return nil
}
