package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// This file is the one description of a binding-table entry — the whole
// control plane of the paper's Figure 4. A Binding says which packets update
// which distribution and how the value of interest is extracted; the kind
// table says, per kind, which emitted action that is and how the parameters
// pack into the action's positional arguments; Lower turns the one into the
// other. Runtime.Bind, app configs, the daemons' tracks and the emitter's
// list of bindable actions all read this table; the measure table below says
// what each optional measure adds to a program.

// Binding is one binding-table entry in declarative form. A kind reads only
// its own parameters; the rest are ignored.
type Binding struct {
	// Kind selects the tracked statistic: a row of the kind table below
	// (window, freq-dst, entropy-src, flow-pair, …).
	Kind  string `json:"kind"`
	Stage int    `json:"stage"`
	Slot  int    `json:"slot"`
	Match Match  `json:"match"`

	// Window parameters: 2^IntervalShift ns per interval, Capacity intervals.
	IntervalShift uint `json:"interval_shift,omitempty"`
	Capacity      int  `json:"capacity,omitempty"`

	// Extraction parameters: observed value = (header >> Shift) − Base on
	// [0, Size); PA:PB are the percentile weights (1:1 is the median).
	Shift uint   `json:"shift,omitempty"`
	Base  uint64 `json:"base,omitempty"`
	Size  int    `json:"size,omitempty"`
	PA    uint64 `json:"pa,omitempty"`
	PB    uint64 `json:"pb,omitempty"`

	// K arms the anomaly check at K·σ (0 disables for frequency modes).
	K uint64 `json:"k,omitempty"`

	// Entropy parameters: H0 arms the collapse check at H0/2^EntropyFrac
	// bits (0 disables); CheckEvery rate-limits it (power of two, 0 → 1).
	H0         uint64 `json:"h0,omitempty"`
	CheckEvery uint64 `json:"check_every,omitempty"`

	// SampleShift is the 2^-SampleShift coin: the heavy-hitter recirculation
	// probability, or the flow table's admission probability for new keys.
	SampleShift uint `json:"sample_shift,omitempty"`

	// Flow-table parameters: epoch = ts >> EpochShift; an entry survives TTL
	// epochs after its last touch. EpochShift 63 with TTL 1 never expires.
	EpochShift uint   `json:"epoch_shift,omitempty"`
	TTL        uint64 `json:"ttl,omitempty"`
}

// measure is one optional measure of the emitted program — entropy, heavy
// hitters, the flow table — described once, in its own file. The options
// check, the kind table, the emitter's field list, the canonical form, the
// digest decoder, the view table and the track presets read the rows; no
// other file names a measure's kinds, parameters, scratch fields, track
// presets, kind value or registers.
type measure struct {
	name string                 // the Options switch, for messages
	on   func(o *Options) *bool // the switch itself
	size func(o *Options) int   // cells per slot of its own table; nil: Options.Size
	// sizing fills in the measure's sizing defaults and refuses options it
	// cannot be emitted with.
	sizing  func(o *Options) error
	kind    uint64                     // the m.kind value its bind actions set
	declare func(l *Library)           // registers with merge kind and reason, actions
	block   func(l *Library) []p4.Stmt // the per-packet fragment, run under m.kind == kind
	// recomputed lists the MergeDerived registers rebuild recomputes in a
	// canonical snapshot from a noted slot's counters.
	recomputed []string
	rebuild    func(l *Library, snap *p4.Snapshot, slot int)
	// counts, when set, gives a slot bound to the measure's kinds its merged
	// frequencies, kept instead of the counter array and with no marker.
	counts func(rt *Runtime, slot int) []uint64
	digest *digestLayout // its own alert; nil: anomaly digests only
	views  []AnyView     // its rows of the view table
	kinds  []kind        // its rows of the kind table
	tracks []track       // its track presets
	// scratch declares its private metadata through field; every program
	// declares it, on or off.
	scratch func(field fieldFunc)
	// trackBinding fills in its parameters of every track's binding.
	trackBinding func(l *Library, p TrackParams, b *Binding) error
}

// fieldFunc declares a field (Program.AddField) or finds a declared one
// (Library.field), so a measure spells its scratch once for both.
type fieldFunc = func(name string, w p4.Width) p4.FieldID

// measures is the measure table, in the order every reader walks it.
var measures = []*measure{entropyMeasure, hhMeasure, flowMeasure}

// require refuses a program built without the measure — Lower's error and
// Read's alike. A nil measure is part of every program.
func (m *measure) require(o *Options) error {
	if m != nil && !*m.on(o) {
		return fmt.Errorf("stat4p4: library built without Options.%s", m.name)
	}
	return nil
}

// param validates one binding parameter against the program's sizing and
// returns it as the action argument it becomes.
type param func(o *Options, b *Binding) (uint64, error)

// kind is one row of the kind table. The action's arguments are always
// [slot·stride, slot] followed by params in order, so a row spells the
// emitted action's positional layout.
type kind struct {
	name   string
	action string
	needs  *measure // the row that lists the kind; nil: part of every program
	view   AnyView  // the row the kind's slot is read back through
	// noStrict marks a kind whose action needs runtime multiplication and
	// is therefore not emitted for Strict targets.
	noStrict bool
	// perShard marks a kind whose slot state is clock-driven per shard (a
	// window), so the view's merged read is not the slot's answer.
	perShard bool
	params   []param
	// note builds what CanonicalizeSnapshot must remember about the slot;
	// nil when the kind leaves nothing to recompute. Lower adds the kind's
	// measure, whose recomputed registers the slot also needs rebuilt.
	note func(b *Binding) SlotBinding
}

func noteWeights(b *Binding) SlotBinding { return SlotBinding{Slot: b.Slot, PA: b.PA, PB: b.PB} }

var (
	freqTail  = []param{pBase, pSize, pPA, pPB, pK}
	freqShift = append([]param{pShift}, freqTail...)
	winParams = []param{pIntervalShift, pCapacity, pWindowK}
)

// coreKinds are the kinds every program carries.
var coreKinds = []kind{
	{name: "freq-echo", action: "bind_freq_echo", view: Moments, params: freqTail, note: noteWeights},
	{name: "freq-dst", action: "bind_freq_dst", view: Moments, params: freqShift, note: noteWeights},
	{name: "freq-dport", action: "bind_freq_dport", view: Moments, params: freqShift, note: noteWeights},
	{name: "freq-proto", action: "bind_freq_proto", view: Moments, params: freqTail, note: noteWeights},
	{name: "freq-len", action: "bind_freq_len", view: Moments, params: freqShift, note: noteWeights},
	{name: "window", action: "bind_window", view: Moments, perShard: true, params: winParams},
	{name: "window-bytes", action: "bind_window_bytes", view: Moments, noStrict: true, perShard: true, params: winParams},
}

// kinds is the kind table, in the order the emitter lists the actions in
// every binding table, and tracks the preset table (tracks.go).
var kinds, tracks = assemble()

// assemble builds the kind and preset tables: the core rows, then each
// measure row's kinds, which need it, and presets, in measure order.
func assemble() (ks []kind, ts []track) {
	ks, ts = append(ks, coreKinds...), append(ts, coreTracks...)
	for _, m := range measures {
		for _, k := range m.kinds {
			k.needs = m
			ks = append(ks, k)
		}
		ts = append(ts, m.tracks...)
	}
	return ks, ts
}

func findKind(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// emitted reports whether a program built with these options carries the
// kind's action.
func (k *kind) emitted(o *Options) bool {
	return !(k.noStrict && o.Strict) && (k.needs == nil || *k.needs.on(o))
}

// stride is the number of cells a slot owns in the table the action indexes.
func (k *kind) stride(o *Options) int {
	if k.needs != nil && k.needs.size != nil {
		return k.needs.size(o)
	}
	return o.Size
}

func rangeErr(what string, v, max uint) error {
	return fmt.Errorf("stat4p4: %s %d out of range (max %d)", what, v, max)
}

func pBase(_ *Options, b *Binding) (uint64, error) { return b.Base, nil }

// pShift bounds every header extraction alike: the widest extracted field is
// 32 bits, so a larger shift can only be a mistake.
func pShift(_ *Options, b *Binding) (uint64, error) {
	if b.Shift > 32 {
		return 0, rangeErr("shift", b.Shift, 32)
	}
	return uint64(b.Shift), nil
}

func pSize(o *Options, b *Binding) (uint64, error) {
	if b.Size <= 0 || b.Size > o.Size {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadSize, b.Size, o.Size)
	}
	return uint64(b.Size), nil
}

func weight(o *Options, w uint64) (uint64, error) {
	if w == 0 {
		return 0, fmt.Errorf("stat4p4: percentile weights must be positive")
	}
	if o.Strict && w != 1 {
		return 0, fmt.Errorf("%w: percentile weight %d (strict supports the median only)", ErrStrict, w)
	}
	return w, nil
}

func pPA(o *Options, b *Binding) (uint64, error) { return weight(o, b.PA) }
func pPB(o *Options, b *Binding) (uint64, error) { return weight(o, b.PB) }

// pK is the frequency-style check multiplier: strict programs hard-wire 2σ.
func pK(o *Options, b *Binding) (uint64, error) {
	if o.Strict && b.K != 0 && b.K != 2 {
		return 0, fmt.Errorf("%w: k must be 0 or 2", ErrStrict)
	}
	return b.K, nil
}

func pIntervalShift(_ *Options, b *Binding) (uint64, error) {
	if b.IntervalShift >= 64 {
		return 0, rangeErr("interval shift", b.IntervalShift, 63)
	}
	return uint64(b.IntervalShift), nil
}

func pCapacity(o *Options, b *Binding) (uint64, error) {
	if b.Capacity <= 0 || b.Capacity > o.Size {
		return 0, fmt.Errorf("%w: window capacity %d of %d", ErrBadSize, b.Capacity, o.Size)
	}
	if o.Strict && b.Capacity != 1<<o.StrictCapShift {
		return 0, fmt.Errorf("%w: window capacity must be %d", ErrStrict, 1<<o.StrictCapShift)
	}
	return uint64(b.Capacity), nil
}

func pWindowK(o *Options, b *Binding) (uint64, error) {
	if o.Strict && b.K != 2 {
		return 0, fmt.Errorf("%w: k must be 2", ErrStrict)
	}
	return b.K, nil
}

// pSampleMask turns the coin exponent into the mask the action compares the
// hash's high word against: 2^k − 1.
func pSampleMask(_ *Options, b *Binding) (uint64, error) {
	if b.SampleShift > 32 {
		return 0, rangeErr("sample shift", b.SampleShift, 32)
	}
	return uint64(1)<<b.SampleShift - 1, nil
}

// Lowered is a Binding resolved against one library: the table entry to
// insert, identical for every replica of the program.
type Lowered struct {
	Table    string
	Keys     []p4.MatchValue
	Priority int
	Action   string
	Args     []uint64
	// Note is what CanonicalizeSnapshot must remember about the slot, nil
	// when the kind leaves nothing to recompute.
	Note *SlotBinding
	kind *kind
}

// Lower checks a binding against the library's sizing and measures and
// resolves it to a table entry. It touches no switch.
func (l *Library) Lower(b Binding) (Lowered, error) {
	k := findKind(b.Kind)
	if k == nil {
		return Lowered{}, fmt.Errorf("stat4p4: unknown binding kind %q", b.Kind)
	}
	o := &l.Opts
	if k.noStrict && o.Strict {
		return Lowered{}, fmt.Errorf("%w: %s needs runtime multiplication", ErrStrict, k.name)
	}
	if err := k.needs.require(o); err != nil {
		return Lowered{}, err
	}
	if b.Stage < 0 || b.Stage >= o.Stages {
		return Lowered{}, fmt.Errorf("%w: %d of %d", ErrBadStage, b.Stage, o.Stages)
	}
	if b.Slot < 0 || b.Slot >= o.Slots {
		return Lowered{}, fmt.Errorf("%w: %d of %d", ErrBadSlot, b.Slot, o.Slots)
	}
	keys, err := b.Match.keys()
	if err != nil {
		return Lowered{}, err
	}
	args := make([]uint64, 2, 2+len(k.params))
	args[0], args[1] = uint64(b.Slot*k.stride(o)), uint64(b.Slot)
	for _, p := range k.params {
		v, err := p(o, &b)
		if err != nil {
			return Lowered{}, fmt.Errorf("%s: %w", k.name, err)
		}
		args = append(args, v)
	}
	low := Lowered{
		Table: l.BindTables[b.Stage], Keys: keys, Priority: b.Match.Priority,
		Action: k.action, Args: args, kind: k,
	}
	if k.note != nil {
		n := k.note(&b)
		n.measure = k.needs
		low.Note = &n
	}
	return low, nil
}
