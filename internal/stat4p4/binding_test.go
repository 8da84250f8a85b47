package stat4p4

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"stat4/internal/p4"
)

// everything is a sizing that carries every kind's action.
var everything = Options{Slots: 4, Size: 64, Stages: 2, Entropy: true,
	HeavyHitter: true, HHTableSize: 16, FlowTable: true, FlowTableSize: 64}

func actionParams(t *testing.T, lib *Library, name string) int {
	t.Helper()
	for _, a := range lib.Prog.Actions {
		if a.Name == name {
			return a.NumParams
		}
	}
	t.Fatalf("program declares no action %q", name)
	return 0
}

// TestKindTableComplete: in every registered program, the actions a binding
// table offers are exactly the kind rows the program carries, in table order
// and with bind_none where the emitter has always put it, and each row packs
// as many arguments as its action declares parameters. The measure rows the
// kinds need are complete the same way (see below).
func TestKindTableComplete(t *testing.T) {
	progs := Registered()
	progs = append(progs, RegisteredProgram{Name: "everything", Opts: everything})
	for _, rp := range progs {
		lib := Build(rp.Opts)
		var want []string
		for i := range kinds {
			k := &kinds[i]
			if k.emitted(&lib.Opts) {
				want = append(want, k.action)
				if got, n := 2+len(k.params), actionParams(t, lib, k.action); got != n {
					t.Errorf("%s: kind %s packs %d arguments, action %s takes %d", rp.Name, k.name, got, k.action, n)
				}
			}
		}
		for _, tbl := range lib.Prog.Tables {
			if !strings.HasPrefix(tbl.Name, "bind") {
				continue
			}
			var got []string
			for _, a := range tbl.ActionNames {
				if a != "bind_none" {
					got = append(got, a)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: table %s offers %v, kind table says %v", rp.Name, tbl.Name, got, want)
			}
			if len(tbl.ActionNames) < 7 || tbl.ActionNames[6] != "bind_none" {
				t.Errorf("%s: table %s moved bind_none: %v", rp.Name, tbl.Name, tbl.ActionNames)
			}
		}
	}
	if len(kindCases) != len(kinds) {
		t.Errorf("%d kind cases for %d kinds", len(kindCases), len(kinds))
	}
	for i := range kindCases {
		if i < len(kinds) && kindCases[i].Kind != kinds[i].name {
			t.Errorf("kind case %d is %s, kind table says %s", i, kindCases[i].Kind, kinds[i].name)
		}
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		if seen[k.name] || seen[k.action] {
			t.Errorf("kind %s / action %s listed twice", k.name, k.action)
		}
		seen[k.name], seen[k.action] = true, true
	}
	// The kind table and the track presets keep their order: the core rows,
	// then each measure row's, in measure order. The binding tables'
	// bindable-action order and every tool's track list follow it.
	var names []string
	for _, k := range kinds {
		names = append(names, k.name)
	}
	if want := []string{"freq-echo", "freq-dst", "freq-dport", "freq-proto", "freq-len", "window", "window-bytes",
		"entropy-dst", "entropy-src", "hh-dst", "hh-src", "flow-dst", "flow-src", "flow-pair"}; !reflect.DeepEqual(names, want) {
		t.Errorf("kind table %v, want %v", names, want)
	}
	if got, want := Tracks(), []string{"window", "dst24", "proto", "len", "entropy", "hh", "flow"}; !reflect.DeepEqual(got, want) {
		t.Errorf("tracks %v, want %v", got, want)
	}
	// A kind that needs a measure comes from that row's list and no other's,
	// and every row's kind is in the table.
	for _, k := range kinds {
		for _, m := range measures {
			listed := false
			for _, mk := range m.kinds {
				listed = listed || mk.name == k.name
			}
			if listed != (k.needs == m) {
				t.Errorf("kind %s needs %v, but row %s lists it: %v", k.name, k.needs, m.name, listed)
			}
		}
	}
	// Each row's scratch is declared whether the row is on or off, at the
	// tail of the field list in row order.
	bare := Build(Options{Slots: 1, Size: 16, Stages: 1}).Prog.Fields
	var tail []p4.FieldDef
	for _, m := range measures {
		m.scratch(func(name string, w p4.Width) p4.FieldID {
			tail = append(tail, p4.FieldDef{Name: name, Width: w})
			return 0
		})
	}
	if len(tail) == 0 || len(bare) < len(tail) || !reflect.DeepEqual(bare[len(bare)-len(tail):], tail) {
		t.Errorf("the measure-less program's fields end %v, the rows' scratch is %v", bare[max(len(bare)-len(tail), 0):], tail)
	}

	// The measure table: m.kind values are unique across the core and the
	// rows; a track's options switch on exactly its kind's row; the
	// recomputed list is the core's followed by each row that is on, in row
	// order; and a row declares exactly the registers its views and rebuild
	// read beyond the default program's.
	kindValues := map[uint64]string{kindFreq: "freq", kindWindow: "window"}
	for _, m := range measures {
		if other, dup := kindValues[m.kind]; dup {
			t.Errorf("measure %s takes kind value %d of %s", m.name, m.kind, other)
		}
		kindValues[m.kind] = m.name
	}
	for _, name := range Tracks() {
		opts, err := TrackOptions(name, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := findTrack(name)
		for _, m := range measures {
			if want := findKind(tr.kind).needs == m; *m.on(&opts) != want {
				t.Errorf("track %s: Options.%s = %v, want %v", name, m.name, *m.on(&opts), want)
			}
		}
	}
	core := Build(DefaultOptions).RecomputedRegisters()
	for _, rp := range Registered() {
		want := append([]string{}, core...)
		for _, m := range measures {
			if *m.on(&rp.Opts) {
				want = append(want, m.recomputed...)
			}
		}
		if got := Build(rp.Opts).RecomputedRegisters(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recomputed %v, want %v", rp.Name, got, want)
		}
	}
	off := declared(Build(DefaultOptions))
	for _, m := range measures {
		opts := DefaultOptions
		*m.on(&opts) = true
		own := make(map[string]bool)
		for reg := range declared(Build(opts)) {
			if !off[reg] {
				own[reg] = true
			}
		}
		read := rowReads(t, m)
		for reg := range read {
			if off[reg] {
				delete(read, reg)
			}
		}
		if len(own) == 0 || !reflect.DeepEqual(read, own) {
			t.Errorf("measure %s: declares %v beyond the default program, its views and rebuild read %v", m.name, own, read)
		}
		for _, reg := range m.recomputed {
			if !own[reg] {
				t.Errorf("measure %s: recomputes %s, which it does not declare", m.name, reg)
			}
		}
	}
}

func declared(lib *Library) map[string]bool {
	out := make(map[string]bool)
	for _, rd := range lib.Prog.Registers {
		out[rd.Name] = true
	}
	return out
}

// rowReads finds the registers a measure's views and canonical rebuild read,
// on viewsPair's program and traffic: each is a register whose absence
// changes what one of them answers at some slot, or makes it fail. The views
// read a one-shard deployment of the program's registers alone, less one,
// holding the traffic's cells; the rebuild runs on a snapshot less one.
func rowReads(t *testing.T, m *measure) map[string]bool {
	t.Helper()
	full, _ := viewsPair(t, 1)
	lib, snap := full.lib, full.Switch().Snapshot()
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	read := make(map[string]bool)
	for _, without := range lib.Prog.Registers {
		prog := p4.NewProgram("registers")
		std := p4.DeclareStdFields(prog)
		for _, rd := range lib.Prog.Registers {
			if rd.Name != without.Name {
				prog.AddRegister(rd.Name, rd.Cells, rd.Width)
			}
		}
		ss, err := p4.NewShardedSwitch(prog, std, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range prog.Registers {
			reg, _ := ss.Shard(0).Register(rd.Name)
			for i, c := range snap.Registers[rd.Name] {
				if err := reg.WriteCell(i, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		less := &Runtime{lib: lib, ss: ss}
		for _, v := range m.views {
			for slot := 0; slot < lib.Opts.Slots; slot++ {
				want, _ := v.Body(full, slot, 0)
				var got any
				if panics(func() { got, _ = v.Body(less, slot, 0) }) || !reflect.DeepEqual(got, want) {
					read[without.Name] = true
				}
			}
		}
		ss.Close()

		if m.rebuild == nil {
			continue
		}
		canonical := func(sb SlotBinding) bool {
			regs := make(map[string][]uint64)
			for name, cells := range snap.Registers {
				if name != without.Name {
					regs[name] = append([]uint64{}, cells...)
				}
			}
			return panics(func() { lib.CanonicalizeSnapshot(&p4.Snapshot{Registers: regs}, []SlotBinding{sb}) })
		}
		for slot := 0; slot < lib.Opts.Slots; slot++ {
			if canonical(SlotBinding{Slot: slot, PA: 1, PB: 1, measure: m}) && !canonical(SlotBinding{Slot: slot, PA: 1, PB: 1}) {
				read[without.Name] = true
			}
		}
	}
	return read
}

// kindCases is one Binding per kind, in kind-table order, with distinct
// parameter values so a swapped field cannot go unnoticed; FuzzBinding seeds
// its corpus with them.
var kindCases = []Binding{
	{Kind: "freq-echo", Stage: 1, Slot: 2, Base: 7, Size: 33, PA: 3, PB: 5, K: 2},
	{Kind: "freq-dst", Stage: 1, Slot: 2, Shift: 8, Base: 7, Size: 33, PA: 3, PB: 5, K: 2},
	{Kind: "freq-dport", Stage: 1, Slot: 2, Shift: 8, Base: 7, Size: 33, PA: 3, PB: 5, K: 2},
	{Kind: "freq-proto", Stage: 1, Slot: 2, Base: 7, Size: 33, PA: 3, PB: 5, K: 2},
	{Kind: "freq-len", Stage: 1, Slot: 2, Shift: 6, Base: 7, Size: 33, PA: 3, PB: 5, K: 2},
	{Kind: "window", Stage: 1, Slot: 2, IntervalShift: 20, Capacity: 33, K: 4},
	{Kind: "window-bytes", Stage: 1, Slot: 2, IntervalShift: 20, Capacity: 33, K: 4},
	{Kind: "entropy-dst", Stage: 1, Slot: 2, Shift: 8, Base: 7, Size: 33, H0: 99, CheckEvery: 16},
	{Kind: "entropy-src", Stage: 1, Slot: 2, Shift: 8, Base: 7, Size: 33, H0: 99, CheckEvery: 16},
	{Kind: "hh-dst", Stage: 1, Slot: 2, Shift: 8, SampleShift: 5},
	{Kind: "hh-src", Stage: 1, Slot: 2, Shift: 8, SampleShift: 5},
	{Kind: "flow-dst", Stage: 1, Slot: 2, Shift: 8, EpochShift: 21, TTL: 6, SampleShift: 5, K: 4},
	{Kind: "flow-src", Stage: 1, Slot: 2, Shift: 8, EpochShift: 21, TTL: 6, SampleShift: 5, K: 4},
	{Kind: "flow-pair", Stage: 1, Slot: 2, EpochShift: 21, TTL: 6, SampleShift: 5, K: 4},
}

// sugarCases pairs each typed method left with the Binding it must be sugar
// for.
var sugarCases = []struct {
	typed func(b *Runtime, m Match) (p4.EntryID, error)
	b     Binding
}{
	{func(b *Runtime, m Match) (p4.EntryID, error) { return b.BindFreqDst(1, 2, m, 8, 7, 33, 3, 5, 2) },
		Binding{Kind: "freq-dst", Stage: 1, Slot: 2, Shift: 8, Base: 7, Size: 33, PA: 3, PB: 5, K: 2}},
	{func(b *Runtime, m Match) (p4.EntryID, error) { return b.BindWindow(1, 2, m, 20, 33, 4) },
		Binding{Kind: "window", Stage: 1, Slot: 2, IntervalShift: 20, Capacity: 33, K: 4}},
	{func(b *Runtime, m Match) (p4.EntryID, error) { return b.BindFlowSrc(1, 2, m, 8, 21, 6, 5, 4) },
		Binding{Kind: "flow-src", Stage: 1, Slot: 2, Shift: 8, EpochShift: 21, TTL: 6, SampleShift: 5, K: 4}},
}

func entryByID(t *testing.T, sw *p4.Switch, table string, id p4.EntryID) p4.Entry {
	t.Helper()
	es, ok := sw.Snapshot().Entries[table]
	if !ok {
		t.Fatalf("no table %q", table)
	}
	for _, e := range es {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("table %s holds no entry %d", table, id)
	return p4.Entry{}
}

// TestSugarIsBind: each typed method installs exactly the entry Bind of the
// corresponding Binding installs — on one shard, and on every shard of two,
// which also record the same canonicalisation note.
func TestSugarIsBind(t *testing.T) {
	lib := Build(everything)
	m := Match{IPv4: true, DstPrefix: "10.1.0.0/16", SynOnly: true, Priority: 3}
	for _, c := range sugarCases {
		c.b.Match = m
		same := func(a, b p4.Entry) bool {
			return a.Action == b.Action && a.Priority == b.Priority &&
				reflect.DeepEqual(a.Args, b.Args) && reflect.DeepEqual(a.Match, b.Match)
		}
		rt, err := NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.typed(rt, m)
		if err != nil {
			t.Fatalf("%s typed: %v", c.b.Kind, err)
		}
		typed := entryByID(t, rt.Switch(), "bind1", id)
		if id, err = rt.Bind(c.b); err != nil {
			t.Fatalf("%s Bind: %v", c.b.Kind, err)
		}
		if viaBind := entryByID(t, rt.Switch(), "bind1", id); !same(typed, viaBind) {
			t.Errorf("%s: typed installed %+v, Bind installed %+v", c.b.Kind, typed, viaBind)
		}

		notes := make([][]SlotBinding, 2)
		for i, install := range []func(sr *Runtime) (p4.EntryID, error){
			func(sr *Runtime) (p4.EntryID, error) { return c.typed(sr, m) },
			func(sr *Runtime) (p4.EntryID, error) { return sr.Bind(c.b) },
		} {
			sr, err := NewShardedRuntime(lib, 2)
			if err != nil {
				t.Fatal(err)
			}
			id, err := install(sr)
			if err != nil {
				t.Fatalf("%s sharded: %v", c.b.Kind, err)
			}
			for s := 0; s < sr.NumShards(); s++ {
				if got := entryByID(t, sr.Sharded().Shard(s), "bind1", id); !same(typed, got) {
					t.Errorf("%s: shard %d holds %+v, serial holds %+v", c.b.Kind, s, got, typed)
				}
			}
			notes[i] = sr.FreqSlots()
			sr.Close()
		}
		if !reflect.DeepEqual(notes[0], notes[1]) {
			t.Errorf("%s: typed noted %+v, Bind noted %+v", c.b.Kind, notes[0], notes[1])
		}
		low, _ := lib.Lower(c.b)
		if (low.Note != nil) != (len(notes[1]) == 1) || (low.Note != nil && *low.Note != notes[1][0]) {
			t.Errorf("%s: Lower notes %+v, FreqSlots records %+v", c.b.Kind, low.Note, notes[1])
		}
	}
}

// TestShiftBoundIsUniform: every extraction shares the one bound; freq-dport
// and freq-len used to forget it.
func TestShiftBoundIsUniform(t *testing.T) {
	lib := Build(everything)
	for i := range kinds {
		k := &kinds[i]
		shifted := false
		for _, p := range k.params {
			shifted = shifted || reflect.ValueOf(p).Pointer() == reflect.ValueOf(pShift).Pointer()
		}
		if !shifted {
			continue
		}
		b := Binding{Kind: k.name, Match: AllIPv4(), Shift: 33, Size: 8, PA: 1, PB: 1, Capacity: 8, TTL: 1}
		if _, err := lib.Lower(b); err == nil || !strings.Contains(err.Error(), "shift 33") {
			t.Errorf("%s: shift 33 → %v, want a range error", k.name, err)
		}
		b.Shift = 32
		if _, err := lib.Lower(b); err != nil {
			t.Errorf("%s: shift 32 refused: %v", k.name, err)
		}
	}
}

// TestTrackPresets pins the seven tracks to the literal entries the daemons
// have always installed for a bare {"mode": …} request: stat4d's handleBind
// defaults (size 256, window 100, interval/epoch shift 23, ttl 4, base
// 10.0.0.0, median) on the daemon's program sizing.
func TestTrackPresets(t *testing.T) {
	lib := Build(Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true,
		FlowTable: true, FlowTableSize: 64})
	const base = 10 << 16 // 10.0.0.0 >> 8
	golden := []struct {
		track  string
		action string
		slot0  []uint64
		slot1  []uint64 // slot base moves by the kind's own stride
	}{
		{"window", "bind_window", []uint64{0, 0, 23, 100, 0}, []uint64{256, 1, 23, 100, 0}},
		{"dst24", "bind_freq_dst", []uint64{0, 0, 8, base, 256, 1, 1, 0}, []uint64{256, 1, 8, base, 256, 1, 1, 0}},
		{"proto", "bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 0}, []uint64{256, 1, 0, 256, 1, 1, 0}},
		{"len", "bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 0}, []uint64{256, 1, 6, 0, 256, 1, 1, 0}},
		{"entropy", "bind_ent_dst", []uint64{0, 0, 8, base, 256, 0, 0}, []uint64{256, 1, 8, base, 256, 0, 0}},
		{"hh", "bind_hh_src", []uint64{0, 0, 0, 0}, []uint64{16, 1, 0, 0}},
		{"flow", "bind_flow_src", []uint64{0, 0, 0, 23, 4, 0, 0}, []uint64{64, 1, 0, 23, 4, 0, 0}},
	}
	if got := Tracks(); len(got) != len(golden) {
		t.Fatalf("tracks %v, golden table has %d", got, len(golden))
	}
	for _, g := range golden {
		for slot, want := range [][]uint64{g.slot0, g.slot1} {
			b, err := lib.TrackBinding(g.track, TrackParams{Slot: slot}.WithDefaults())
			if err != nil {
				t.Fatalf("%s: %v", g.track, err)
			}
			low, err := lib.Lower(b)
			if err != nil {
				t.Fatalf("%s: %v", g.track, err)
			}
			wantKeys, _ := AllIPv4().keys()
			if low.Action != g.action || !reflect.DeepEqual(low.Args, want) ||
				low.Table != "bind0" || !reflect.DeepEqual(low.Keys, wantKeys) {
				t.Errorf("%s slot %d: lowered to %s%v on %s, want %s%v on bind0",
					g.track, slot, low.Action, low.Args, low.Table, g.action, want)
			}
		}
		opts, err := TrackOptions(g.track, Options{Slots: 1, Size: 256, Stages: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(opts).Lower(mustTrack(t, Build(opts), g.track)); err != nil {
			t.Errorf("%s: TrackOptions builds a program that cannot bind it: %v", g.track, err)
		}
	}
	// Parameters reach the entry: a tuned request is not the default one.
	b, err := lib.TrackBinding("entropy", TrackParams{H0Bits: 4, CheckEvery: 1024, Base: "10.7.0.0", Size: 128}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	low, err := lib.Lower(b)
	if want := []uint64{0, 0, 8, 10<<16 | 7<<8, 128, 4 << 16, 1023}; err != nil || !reflect.DeepEqual(low.Args, want) {
		t.Errorf("tuned entropy: %v %v, want %v", low.Args, err, want)
	}
	// A threshold is at most 64 bits, the most entropy any count of
	// observations has; beyond it, infinite or NaN is refused rather than
	// converted out of range. Zero or less disables the check.
	for _, c := range []struct {
		bits float64
		h0   uint64
		ok   bool
	}{
		{64, 64 << 16, true},
		{0, 0, true},
		{-3, 0, true},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{math.NaN(), 0, false},
		{1e300, 0, false},
		{64.5, 0, false},
	} {
		b, err := lib.TrackBinding("entropy", TrackParams{H0Bits: c.bits}.WithDefaults())
		if (err == nil) != c.ok || b.H0 != c.h0 {
			t.Errorf("h0 %v bits: H0 %#x, err %v; want %#x, accepted %v", c.bits, b.H0, err, c.h0, c.ok)
		}
	}
	if _, err := lib.TrackBinding("dst24", TrackParams{Base: "ten.0.0.0"}); err == nil {
		t.Error("malformed base accepted")
	}
	if _, err := lib.TrackBinding("bogus", TrackDefaults); err == nil {
		t.Error("unknown track accepted")
	}
}

func mustTrack(t *testing.T, lib *Library, track string) Binding {
	t.Helper()
	b, err := lib.TrackBinding(track, TrackDefaults)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResetSlotZeroesEveryStripe: for every registered program, ResetSlot
// zeroes the slot's stripe of every declared register — whatever measures the
// program carries — and nothing outside it.
func TestResetSlotZeroesEveryStripe(t *testing.T) {
	const sentinel = 0x5a
	for _, rp := range Registered() {
		lib := Build(rp.Opts)
		rt, err := NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range lib.Prog.Registers {
			reg, _ := rt.Switch().Register(rd.Name)
			for i := 0; i < rd.Cells; i++ {
				if err := reg.WriteCell(i, sentinel); err != nil {
					t.Fatal(err)
				}
			}
		}
		slot := lib.Opts.Slots - 1
		if err := rt.ResetSlot(slot); err != nil {
			t.Fatalf("%s: %v", rp.Name, err)
		}
		for _, rd := range lib.Prog.Registers {
			reg, _ := rt.Switch().Register(rd.Name)
			stride := rd.Cells / lib.Opts.Slots
			for i := 0; i < rd.Cells; i++ {
				want := uint64(sentinel)
				if i/stride == slot {
					want = 0
				}
				if v, _ := reg.Read(i); v != want {
					t.Fatalf("%s: %s[%d] = %#x after resetting slot %d, want %#x", rp.Name, rd.Name, i, v, slot, want)
				}
			}
		}
		if err := rt.ResetSlot(lib.Opts.Slots); err == nil {
			t.Errorf("%s: reset of slot %d accepted", rp.Name, lib.Opts.Slots)
		}
	}
}

// TestDecodeDigest: the three layouts decode to named fields; short and
// unknown records are errors.
func TestDecodeDigest(t *testing.T) {
	a, err := DecodeDigest(p4.Digest{ID: DigestEntropy, Values: []uint64{1, 500, 40, 90, 777}})
	if err != nil || a.Kind != "entropy" || a.Slot != 1 || a.TsNs != 777 ||
		!reflect.DeepEqual(a.Fields, []string{"total", "scaled_entropy", "scaled_threshold"}) ||
		!reflect.DeepEqual(a.Values, []uint64{500, 40, 90}) {
		t.Errorf("entropy digest decoded to %+v, %v", a, err)
	}
	a, err = DecodeDigest(p4.Digest{ID: DigestHeavyHitter, Values: []uint64{0, 0xc6120001, 9}})
	if err != nil || a.Kind != "heavy-hitter" || a.TsNs != 9 || !reflect.DeepEqual(a.Values, []uint64{0xc6120001}) {
		t.Errorf("heavy-hitter digest decoded to %+v, %v", a, err)
	}
	a, err = DecodeDigest(p4.Digest{ID: DigestAnomaly, Values: []uint64{3, 10, 20, 30, 40}})
	if err != nil || a.Kind != "anomaly" || a.Slot != 3 || a.TsNs != 40 ||
		!reflect.DeepEqual(a.Fields, []string{"value", "n_times_x", "threshold"}) {
		t.Errorf("anomaly digest decoded to %+v, %v", a, err)
	}
	if _, err := DecodeDigest(p4.Digest{ID: DigestAnomaly, Values: []uint64{3, 10, 20}}); err == nil {
		t.Error("short anomaly digest decoded")
	}
	if _, err := DecodeDigest(p4.Digest{ID: 42, Values: []uint64{1, 2, 3, 4, 5}}); err == nil {
		t.Error("unknown digest id decoded")
	}
}

// FuzzBinding throws arbitrary bytes at the JSON face of a Binding and at
// Lower, against every registered program: decoding and lowering never
// panic; a lowered entry names an action its table offers, with the argument
// count the action takes and slot and stage in range, and inserts cleanly; a
// refused binding inserts nothing.
func FuzzBinding(f *testing.F) {
	for _, b := range kindCases {
		js, _ := json.Marshal(b)
		f.Add(js)
	}
	f.Add([]byte(`{"kind":"window","match":{"dst_prefix":"10.0.0.0/8"},"interval_shift":23,"capacity":100,"k":2}`))
	f.Add([]byte(`{"kind":"freq-dst","slot":-1,"match":{"dst_prefix":"bogus"}}`))
	f.Add([]byte(`{"kind":"flow-src","stage":9,"ttl":0,"sample_shift":99}`))
	f.Add([]byte(`{"kind":"flow-dst","match":{"ipv4":true},"epoch_shift":63,"ttl":1,"k":2}`)) // never expires
	f.Add([]byte(`{"kind":"sparse-dst","match":{"ipv4":true},"k":2}`))                        // a retired kind: refused like any unknown one
	type target struct {
		lib *Library
		rt  *Runtime
	}
	var targets []target
	for _, rp := range append(Registered(), RegisteredProgram{Name: "everything", Opts: everything}) {
		opts := rp.Opts
		opts.BindEntries = 1 << 20 // the fuzzer may insert without bound
		lib := Build(opts)
		rt, err := NewRuntime(lib)
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{lib, rt})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Binding
		if json.Unmarshal(data, &b) != nil {
			return
		}
		for _, tg := range targets {
			lib, sw := tg.lib, tg.rt.Switch()
			// Every accepted binding is unbound again below, so the bind
			// tables are empty between inputs and one read after Bind
			// tells what it inserted.
			inserted := func() (n int) {
				entries := sw.Snapshot().Entries
				for _, tbl := range lib.BindTables {
					n += len(entries[tbl])
				}
				return n
			}
			low, lerr := lib.Lower(b)
			id, berr := tg.rt.Bind(b)
			if lerr != nil {
				if berr == nil || inserted() != 0 {
					t.Fatalf("Lower refused %+v (%v) but Bind inserted (err %v)", b, lerr, berr)
				}
				continue
			}
			if berr != nil || inserted() != 1 {
				t.Fatalf("Lower accepted %+v but Bind failed: %v", b, berr)
			}
			if b.Stage < 0 || b.Stage >= lib.Opts.Stages || b.Slot < 0 || b.Slot >= lib.Opts.Slots {
				t.Fatalf("out-of-range stage/slot lowered: %+v", b)
			}
			if low.Table != lib.BindTables[b.Stage] || low.Args[1] != uint64(b.Slot) {
				t.Fatalf("%+v lowered onto %s slot %d", b, low.Table, low.Args[1])
			}
			offered := false
			for _, tbl := range lib.Prog.Tables {
				if tbl.Name != low.Table {
					continue
				}
				for _, a := range tbl.ActionNames {
					offered = offered || a == low.Action
				}
			}
			if !offered || len(low.Args) != actionParams(t, lib, low.Action) {
				t.Fatalf("%+v lowered to %s with %d args: not what table %s takes", b, low.Action, len(low.Args), low.Table)
			}
			if err := tg.rt.Unbind(b.Stage, id); err != nil {
				t.Fatal(err)
			}
		}
	})
}
