package p4

import (
	"fmt"
	"sync"
)

// Register is the runtime state of a register array. Cells are masked to the
// declared width on write. Reads and writes are index-checked: out-of-bounds
// reads return zero and out-of-bounds writes are dropped, with the switch's
// error counter recording the event — the simulator's analogue of bmv2's
// logged register-bounds errors. The array has no lock of its own: the data
// plane touches it with the owning switch's pipeline lock already held, and
// the control-plane methods below take that same lock, which on hardware
// costs the milliseconds-per-thousand-registers the paper's Section 1 argues
// make pull-based monitoring slow.
type Register struct {
	def   RegisterDef
	mask  uint64      // widthMask(def.Width), applied on every write
	lock  *sync.Mutex // the owning switch's pipeline lock
	cells []uint64
}

func newRegister(def RegisterDef, lock *sync.Mutex) *Register {
	return &Register{def: def, mask: widthMask(def.Width), lock: lock, cells: make([]uint64, def.Cells)}
}

// Def returns the register's declaration.
func (r *Register) Def() RegisterDef { return r.def }

// read is the data-plane read, called under the pipeline lock. ok is false
// out of bounds.
//
//stat4:datapath
func (r *Register) read(idx uint64) (v uint64, ok bool) {
	if idx >= uint64(len(r.cells)) {
		return 0, false
	}
	return r.cells[idx], true
}

// write is the data-plane write, called under the pipeline lock. ok is false
// out of bounds.
//
//stat4:datapath
func (r *Register) write(idx, v uint64) bool {
	if idx >= uint64(len(r.cells)) {
		return false
	}
	r.cells[idx] = v & r.mask
	return true
}

// Read is the control-plane read of a single cell.
func (r *Register) Read(idx int) (uint64, error) {
	r.lock.Lock()
	defer r.lock.Unlock()
	if idx < 0 || idx >= len(r.cells) {
		return 0, fmt.Errorf("p4: register %q index %d of %d", r.def.Name, idx, len(r.cells))
	}
	return r.cells[idx], nil
}

// Snapshot is the control-plane bulk read, returning a copy of all cells —
// what a sketch-pulling controller fetches.
func (r *Register) Snapshot() []uint64 {
	r.lock.Lock()
	defer r.lock.Unlock()
	return append([]uint64(nil), r.cells...)
}

// WriteCell is the control-plane write, used to seed state at startup.
func (r *Register) WriteCell(idx int, v uint64) error {
	r.lock.Lock()
	defer r.lock.Unlock()
	if idx < 0 || idx >= len(r.cells) {
		return fmt.Errorf("p4: register %q index %d of %d", r.def.Name, idx, len(r.cells))
	}
	r.cells[idx] = v & r.mask
	return nil
}
