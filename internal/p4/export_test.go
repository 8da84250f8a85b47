package p4

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
