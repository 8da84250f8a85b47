package p4

// Snapshot is a copy of a switch's mutable state: every register array and
// every table's installed entries, taken in one cut. The control plane reads
// state through it, and a ShardedSwitch merges its shards' snapshots into
// one.
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
	sw.mu.Lock()
	defer sw.mu.Unlock()
	s := &Snapshot{
		Registers: make(map[string][]uint64, len(sw.regs)),
		Entries:   make(map[string][]Entry, len(sw.tables)),
	}
	for name, r := range sw.regs {
		if zeroDerived && r.def.Merge == MergeDerived {
			s.Registers[name] = make([]uint64, len(r.cells))
		} else {
			s.Registers[name] = append([]uint64(nil), r.cells...)
		}
	}
	for name, t := range sw.tables {
		s.Entries[name] = t.copyEntries()
	}
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
