package p4

import "fmt"

// Test-only API: constructors and accessors that only the tests of package
// p4 and p4_test call, so no binary links them.

// Snapshot is the control-plane bulk read, returning a copy of all cells.
func (r *Register) Snapshot() []uint64 {
	r.lock.Lock()
	defer r.lock.Unlock()
	return append([]uint64(nil), r.cells...)
}

// WriteCell is the control-plane write of a single cell, which the tests
// seed state with; the binaries write cells only through ShardedSwitch.SetStripe.
func (r *Register) WriteCell(idx int, v uint64) error {
	r.lock.Lock()
	defer r.lock.Unlock()
	if idx < 0 || idx >= len(r.cells) {
		return fmt.Errorf("p4: register %q index %d of %d", r.def.Name, idx, len(r.cells))
	}
	r.cells[idx] = v & r.mask
	return nil
}

// SatAdd builds dst ← a + b saturating at the field's maximum. No emitted
// program uses OpSatAdd; the tests cover the op.
func SatAdd(dst FieldID, a, b Ref) Op { return Op{Code: OpSatAdd, Dst: F(dst), A: a, B: b} }

// Not builds dst ← ^a. No emitted program uses OpNot; the tests cover the
// op.
func Not(dst FieldID, a Ref) Op { return Op{Code: OpNot, Dst: F(dst), A: a} }

// ProcessFrameTree is ss.ProcessFrame on the tree-walking reference
// interpreter, for the differential tests of package p4_test: the frame runs
// on its shard and the digests it raised are forwarded.
func ProcessFrameTree(ss *ShardedSwitch, tsNs uint64, inPort uint16, data []byte) []FrameOut {
	i := ss.ShardOf(data)
	outs := ss.shards[i].processFrameTree(tsNs, inPort, data)
	ss.forwardDigests(i)
	return outs
}

// EndFields returns the values the last packet left in the fields defined at
// the end of the pipeline: the standard fields and the declared deparser
// reads.
func EndFields(sw *Switch) []uint64 {
	var out []uint64
	for _, f := range append(sw.std.all(), sw.prog.deparserReads...) {
		out = append(out, sw.scratch.fields[f])
	}
	return out
}

// CompiledSize returns the length of sw's generic stream and of its constant
// pool.
func CompiledSize(sw *Switch) (stream, pool int) {
	return len(sw.code), len(sw.poolRefs)
}

// Validations returns how many times Validate has run on p.
func Validations(p *Program) uint64 { return p.validations.Load() }
