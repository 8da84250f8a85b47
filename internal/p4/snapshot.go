package p4

import (
	"fmt"
	"slices"
)

// Snapshot is a copy of a switch's mutable state: every register array and
// every table's installed entries. It supports checkpoint/restore of
// experiments (e.g. rewinding to the moment before a spike) and state
// migration between switch instances running the same program.
type Snapshot struct {
	Registers map[string][]uint64
	Entries   map[string][]Entry
}

// Snapshot captures the switch's current state. It is safe to call while the
// data plane runs: it takes the pipeline lock, so the whole snapshot is one
// cut between two packets (or two batches, under ProcessBatch).
func (sw *Switch) Snapshot() *Snapshot {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	s := &Snapshot{
		Registers: make(map[string][]uint64, len(sw.regs)),
		Entries:   make(map[string][]Entry, len(sw.tables)),
	}
	for name, r := range sw.regs {
		s.Registers[name] = append([]uint64(nil), r.cells...)
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

// Restore loads a snapshot into the switch. The snapshot must come from a
// switch running a program with identical registers and tables; mismatched
// shapes are rejected before any state is touched. Entry IDs are preserved,
// so handles held by a controller stay valid.
func (sw *Switch) Restore(s *Snapshot) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	// Validate first: all-or-nothing.
	for name, cells := range s.Registers {
		r, ok := sw.regs[name]
		if !ok {
			return fmt.Errorf("p4: snapshot register %q not in program", name)
		}
		if len(cells) != r.def.Cells {
			return fmt.Errorf("p4: snapshot register %q has %d cells, program %d",
				name, len(cells), r.def.Cells)
		}
	}
	for name, entries := range s.Entries {
		t, ok := sw.tables[name]
		if !ok {
			return fmt.Errorf("p4: snapshot table %q not in program", name)
		}
		if len(entries) > t.def.MaxEntries {
			return fmt.Errorf("p4: snapshot table %q has %d entries, capacity %d",
				name, len(entries), t.def.MaxEntries)
		}
		for _, e := range entries {
			if err := t.validateEntry(e.Match, e.Action, e.Args, e.Priority); err != nil {
				return fmt.Errorf("p4: snapshot table %q entry %d: %w", name, e.ID, err)
			}
		}
	}

	for name, cells := range s.Registers {
		copy(sw.regs[name].cells, cells)
	}
	for name, entries := range s.Entries {
		t := sw.tables[name]
		old := t.entries
		t.entries = make([]*Entry, 0, len(entries))
		maxID := EntryID(0)
		for _, e := range entries {
			c := e
			c.Match = append([]MatchValue(nil), e.Match...)
			c.Args = append([]uint64(nil), e.Args...)
			// Compile against this switch's stream and pool — the snapshot
			// may come from another instance — unless this switch already
			// holds the same entry, whose traces stay.
			c.traces, c.consts = nil, nil
			for i, o := range old {
				if o != nil && o.ID == c.ID && o.Action == c.Action && slices.Equal(o.Args, c.Args) {
					c.traces, c.consts = o.traces, o.consts
					old[i] = nil
					break
				}
			}
			if c.traces == nil {
				c.traces, c.consts = sw.specialise(t, c.Action, c.Args)
			}
			t.entries = append(t.entries, &c)
			if c.ID > maxID {
				maxID = c.ID
			}
		}
		for _, o := range old {
			if o != nil {
				sw.release(o.consts)
			}
		}
		if t.nextID <= maxID {
			t.nextID = maxID + 1
		}
	}
	return nil
}

// TableEntries returns copies of a table's installed entries, for
// control-plane introspection.
func (sw *Switch) TableEntries(tbl string) ([]Entry, error) {
	t, ok := sw.tables[tbl]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return t.copyEntries(), nil
}
