package p4

// Snapshot is a copy of a switch's mutable state: every register array and
// every table's installed entries, taken in one cut. The control plane reads
// state through it, and a ShardedSwitch merges its shards' snapshots into
// one.
//
// The register slices are sub-slices of one block the garbage collector
// owns, so any of them may outlive the Snapshot: a slice alone keeps its
// cells. A copy costs memory only where the switch wrote: on Linux, outside
// race builds, the block's pages read as the kernel's zero page until a
// 4 KiB chunk whose source holds a non-zero cell is copied into them, and a
// merged snapshot never touches its MergeDerived registers. Everywhere else
// the block is one zeroed heap slice.
type Snapshot struct {
	Registers map[string][]uint64
	Entries   map[string][]Entry
}

// Snapshot captures the switch's current state. It is safe to call while the
// data plane runs: it takes the pipeline lock, so the whole snapshot is one
// cut between two packets (or two batches, under ProcessBatch).
func (sw *Switch) Snapshot() *Snapshot { return sw.snapshot(false) }

// snapshot is Snapshot, with the MergeDerived registers left zero rather
// than copied when zeroDerived is set — what a merged snapshot reports.
func (sw *Switch) snapshot(zeroDerived bool) *Snapshot {
	block := sw.snapshotBlock()
	sw.mu.Lock()
	s := &Snapshot{
		Registers: sw.copyRegisters(block, zeroDerived),
		Entries:   make(map[string][]Entry, len(sw.tables)),
	}
	for name, t := range sw.tables {
		s.Entries[name] = t.copyEntries()
	}
	sw.mu.Unlock()
	return s
}

// copyEntries returns inert deep copies of the installed entries: no
// execution state, so they compare equal across switch instances.
func (t *table) copyEntries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		c := *e
		c.Match = append([]MatchValue(nil), e.Match...)
		c.Args = append([]uint64(nil), e.Args...)
		c.traces, c.consts = nil, nil
		out = append(out, c)
	}
	return out
}
