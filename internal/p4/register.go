package p4

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	mem   *cellMap // the mapping cells lie in, shared by the switch's registers; nil on the heap
}

// alignCells rounds a register's cell count up to whole 64-byte cache
// lines, so that no register shares a line with its neighbour.
func alignCells(n int) int { return (n + 7) &^ 7 }

// mappedBytes is the size of every register mapping not yet unmapped.
var mappedBytes atomic.Int64

// Read is the control-plane read of a single cell.
func (r *Register) Read(idx int) (uint64, error) {
	r.lock.Lock()
	defer r.lock.Unlock()
	if idx < 0 || idx >= len(r.cells) {
		return 0, fmt.Errorf("p4: register %q index %d of %d", r.def.Name, idx, len(r.cells))
	}
	return r.cells[idx], nil
}
