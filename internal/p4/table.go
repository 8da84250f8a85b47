package p4

import (
	"errors"
	"fmt"
)

// MatchKind selects how a table key field is matched.
type MatchKind uint8

// Match kinds.
const (
	MatchExact   MatchKind = iota
	MatchLPM               // longest prefix match; must be a table's only key
	MatchTernary           // value/mask with explicit priority
)

// String returns the kind's P4 name.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	default:
		return fmt.Sprintf("MatchKind(%d)", uint8(k))
	}
}

// KeySpec is one match key of a table.
type KeySpec struct {
	Field FieldID
	Kind  MatchKind
}

// TableDef declares a match-action table: its keys, the actions entries may
// bind, a default action for misses, and a capacity.
type TableDef struct {
	Name          string
	Keys          []KeySpec
	ActionNames   []string
	DefaultAction string
	DefaultArgs   []uint64
	MaxEntries    int
}

// MatchValue is the per-key match data of an entry: the value plus a prefix
// length (LPM) or mask (ternary). Exact keys use only Value.
type MatchValue struct {
	Value     uint64
	PrefixLen int    // LPM: number of leading bits that must match (of the field width)
	Mask      uint64 // ternary: 1-bits must match
}

// EntryID names an installed entry for modification and deletion.
type EntryID uint64

// Entry is an installed table entry.
type Entry struct {
	ID       EntryID
	Match    []MatchValue
	Priority int // ternary tie-break: higher wins
	Action   string
	Args     []uint64

	// traces holds the entry's compiled traces in the owning switch, one per
	// apply site of its table (trace.go), built when the entry is installed
	// — the rule-install-time binding a real driver does, so the per-packet
	// path never looks the action up or copies an argument. consts are the
	// pool slots they hold a reference on. Copies handed out by Snapshot
	// carry neither.
	traces [][]uop
	consts []uint32
}

// Errors returned by runtime table operations.
var (
	ErrTableFull    = errors.New("p4: table full")
	ErrNoSuchEntry  = errors.New("p4: no such entry")
	ErrBadEntry     = errors.New("p4: malformed entry")
	ErrNoSuchTable  = errors.New("p4: no such table")
	ErrNoSuchAction = errors.New("p4: no such action")
)

// table is the runtime state of a TableDef inside a Switch. It has no lock of
// its own: every method runs with the owning switch's pipeline lock held.
type table struct {
	def    *TableDef
	prog   *Program
	nextID EntryID
	// entries in insertion order; lookup scans and picks the best match
	// (longest prefix for LPM, highest priority for ternary, first for
	// exact). Table sizes in the Stat4 programs are tens of entries, so a
	// scan is faithful to TCAM semantics and fast enough.
	entries []*Entry

	// sw is the owning switch, which compiles the entries' traces; sites are
	// the generic-stream pcs of the table's applies, in stream order.
	sw    *Switch
	sites []uint32

	// keyWidth and keyMask cache each key field's declared width and its
	// all-ones mask, so a match never chases the program's field table.
	keyWidth []Width
	keyMask  []uint64
}

func newTable(def *TableDef, sw *Switch) *table {
	t := &table{def: def, prog: sw.prog, nextID: 1, sw: sw}
	for _, k := range def.Keys {
		w := sw.prog.Fields[k.Field].Width
		t.keyWidth = append(t.keyWidth, w)
		t.keyMask = append(t.keyMask, widthMask(w))
	}
	return t
}

func (t *table) validateEntry(match []MatchValue, action string, args []uint64, prio int) error {
	if len(match) != len(t.def.Keys) {
		return fmt.Errorf("%w: %d match values for %d keys", ErrBadEntry, len(match), len(t.def.Keys))
	}
	for i, k := range t.def.Keys {
		w := int(t.prog.Fields[k.Field].Width)
		switch k.Kind {
		case MatchLPM:
			if match[i].PrefixLen < 0 || match[i].PrefixLen > w {
				return fmt.Errorf("%w: prefix length %d for %d-bit key", ErrBadEntry, match[i].PrefixLen, w)
			}
		case MatchTernary:
			if prio < 0 {
				return fmt.Errorf("%w: ternary entry needs non-negative priority", ErrBadEntry)
			}
		}
	}
	allowed := false
	for _, an := range t.def.ActionNames {
		if an == action {
			allowed = true
			break
		}
	}
	if !allowed {
		return fmt.Errorf("%w: action %q not bindable in table %q", ErrNoSuchAction, action, t.def.Name)
	}
	a, _ := t.prog.action(action)
	if len(args) != a.NumParams {
		return fmt.Errorf("%w: %d args for action %q taking %d", ErrBadEntry, len(args), action, a.NumParams)
	}
	return nil
}

func (t *table) insert(match []MatchValue, prio int, action string, args []uint64) (EntryID, error) {
	if err := t.validateEntry(match, action, args, prio); err != nil {
		return 0, err
	}
	if len(t.entries) >= t.def.MaxEntries {
		return 0, fmt.Errorf("%w: %q at capacity %d", ErrTableFull, t.def.Name, t.def.MaxEntries)
	}
	e := &Entry{
		ID:       t.nextID,
		Match:    append([]MatchValue(nil), match...),
		Priority: prio,
		Action:   action,
		Args:     append([]uint64(nil), args...),
	}
	e.traces, e.consts = t.sw.specialise(t, action, args)
	t.nextID++
	t.entries = append(t.entries, e)
	return e.ID, nil
}

func (t *table) remove(id EntryID) error {
	for i, e := range t.entries {
		if e.ID == id {
			t.sw.release(e.consts)
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: id %d in %q", ErrNoSuchEntry, id, t.def.Name)
}

// lookup returns the best-matching entry for the key values, or nil on miss.
// The scan over installed entries simulates what a TCAM does in one parallel
// match cycle; entry counts in the Stat4 programs are tens, set by the
// control plane, not by traffic.
//
//stat4:datapath
func (t *table) lookup(keys []uint64) *Entry {
	var best *Entry
	bestRank := -1
	//stat4:exempt:boundedloop simulates the TCAM's single-cycle parallel match over installed entries
	for _, e := range t.entries {
		if !t.matches(e, keys) {
			continue
		}
		rank := 0
		if len(t.def.Keys) == 1 {
			switch t.def.Keys[0].Kind {
			case MatchLPM:
				rank = e.Match[0].PrefixLen
			case MatchTernary:
				rank = e.Priority
			}
		} else {
			rank = e.Priority
		}
		if rank > bestRank {
			best, bestRank = e, rank
		}
	}
	return best
}

// matches reports whether one entry matches the key values, per key kind.
//
//stat4:datapath
func (t *table) matches(e *Entry, keys []uint64) bool {
	//stat4:exempt:boundedloop a table's key list is fixed when the program is emitted
	for i, k := range t.def.Keys {
		m := t.keyMask[i]
		v := keys[i] & m
		mv := &e.Match[i]
		switch k.Kind {
		case MatchExact:
			if v != mv.Value&m {
				return false
			}
		case MatchLPM:
			shift := uint(t.keyWidth[i]) - uint(mv.PrefixLen)
			if mv.PrefixLen == 0 {
				continue
			}
			if v>>shift != (mv.Value&m)>>shift { //stat4:exempt:shiftconst simulates the TCAM prefix mask; the prefix length is entry data, not packet data
				return false
			}
		case MatchTernary:
			if v&mv.Mask != mv.Value&mv.Mask {
				return false
			}
		}
	}
	return true
}

// widthMask returns the all-ones value of a declared field or register
// width, which is fixed when the program is emitted.
//
//stat4:datapath
func widthMask(w Width) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1 //stat4:exempt:shiftconst w is a compile-time field width of the emitted program
}
