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
// other. Runtime.Bind, the typed Bind* methods, app configs, the daemons'
// tracks and the emitter's list of bindable actions all read this table.

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

// feature is an optional part of the emitted program a kind may need.
type feature struct {
	name string                 // the Options field, for messages
	on   func(o *Options) *bool // the field itself
	size func(o *Options) int   // cells per slot of the feature's own table; nil → Options.Size
}

var (
	featEntropy = &feature{name: "Entropy", on: func(o *Options) *bool { return &o.Entropy }}
	featHH      = &feature{name: "HeavyHitter", on: func(o *Options) *bool { return &o.HeavyHitter },
		size: func(o *Options) int { return o.HHTableSize }}
	featFlow = &feature{name: "FlowTable", on: func(o *Options) *bool { return &o.FlowTable },
		size: func(o *Options) int { return o.FlowTableSize }}
)

// check refuses a program built without the feature — Lower's error and
// Read's alike. A nil feature is part of every program.
func (f *feature) check(o *Options) error {
	if f != nil && !*f.on(o) {
		return fmt.Errorf("stat4p4: library built without Options.%s", f.name)
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
	needs  *feature // nil: part of every program
	view   AnyView  // the row the kind's slot is read back through
	// noStrict marks a kind whose action needs runtime multiplication and
	// is therefore not emitted for Strict targets.
	noStrict bool
	params   []param
	// note builds what CanonicalizeSnapshot must remember about the slot;
	// nil when the kind leaves nothing to recompute.
	note func(b *Binding) SlotBinding
}

func noteWeights(b *Binding) SlotBinding { return SlotBinding{Slot: b.Slot, PA: b.PA, PB: b.PB} }
func noteEntropy(b *Binding) SlotBinding {
	return SlotBinding{Slot: b.Slot, PA: 1, PB: 1, Entropy: true}
}

var (
	freqTail  = []param{pBase, pSize, pPA, pPB, pK}
	freqShift = append([]param{pShift}, freqTail...)
	winParams = []param{pIntervalShift, pCapacity, pWindowK}
	entParams = []param{pShift, pBase, pSize, pH0, pCheckMask}
	hhParams  = []param{pShift, pSampleMask}
	flowTail  = []param{pEpochShift, pTTL, pSampleMask, pPlainK}
)

// kinds is the kind table, in the order the emitter lists the actions in
// every binding table.
var kinds = []kind{
	{name: "freq-echo", action: "bind_freq_echo", view: Moments, params: freqTail, note: noteWeights},
	{name: "freq-dst", action: "bind_freq_dst", view: Moments, params: freqShift, note: noteWeights},
	{name: "freq-dport", action: "bind_freq_dport", view: Moments, params: freqShift, note: noteWeights},
	{name: "freq-proto", action: "bind_freq_proto", view: Moments, params: freqTail, note: noteWeights},
	{name: "freq-len", action: "bind_freq_len", view: Moments, params: freqShift, note: noteWeights},
	{name: "window", action: "bind_window", view: Moments, params: winParams},
	{name: "window-bytes", action: "bind_window_bytes", view: Moments, noStrict: true, params: winParams},
	{name: "entropy-dst", action: "bind_ent_dst", needs: featEntropy, view: Entropy, params: entParams, note: noteEntropy},
	{name: "entropy-src", action: "bind_ent_src", needs: featEntropy, view: Entropy, params: entParams, note: noteEntropy},
	{name: "hh-dst", action: "bind_hh_dst", needs: featHH, view: HeavyHitters, params: hhParams},
	{name: "hh-src", action: "bind_hh_src", needs: featHH, view: HeavyHitters, params: hhParams},
	{name: "flow-dst", action: "bind_flow_dst", needs: featFlow, view: Flows, params: append([]param{pShift}, flowTail...)},
	{name: "flow-src", action: "bind_flow_src", needs: featFlow, view: Flows, params: append([]param{pShift}, flowTail...)},
	// The pair key is src<<32|dst; the action keeps the shift position for a
	// uniform layout and ignores it.
	{name: "flow-pair", action: "bind_flow_pair", needs: featFlow, view: Flows, params: append([]param{pZero}, flowTail...)},
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

func pZero(*Options, *Binding) (uint64, error)       { return 0, nil }
func pBase(_ *Options, b *Binding) (uint64, error)   { return b.Base, nil }
func pH0(_ *Options, b *Binding) (uint64, error)     { return b.H0, nil }
func pPlainK(_ *Options, b *Binding) (uint64, error) { return b.K, nil }

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

// pCheckMask turns the check cadence into the mask the action gates on:
// the check runs when T & (checkEvery−1) == 0.
func pCheckMask(_ *Options, b *Binding) (uint64, error) {
	every := b.CheckEvery
	if every == 0 {
		every = 1
	}
	if every&(every-1) != 0 {
		return 0, fmt.Errorf("stat4p4: checkEvery %d is not a power of two", every)
	}
	return every - 1, nil
}

// pSampleMask turns the coin exponent into the mask the action compares the
// hash's high word against: 2^k − 1.
func pSampleMask(_ *Options, b *Binding) (uint64, error) {
	if b.SampleShift > 32 {
		return 0, rangeErr("sample shift", b.SampleShift, 32)
	}
	return uint64(1)<<b.SampleShift - 1, nil
}

func pEpochShift(_ *Options, b *Binding) (uint64, error) {
	if b.EpochShift >= 64 {
		return 0, rangeErr("epoch shift", b.EpochShift, 63)
	}
	return uint64(b.EpochShift), nil
}

func pTTL(_ *Options, b *Binding) (uint64, error) {
	if b.TTL == 0 {
		return 0, fmt.Errorf("stat4p4: flow TTL must be ≥ 1 epoch")
	}
	return b.TTL, nil
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

// Lower checks a binding against the library's sizing and features and
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
	if err := k.needs.check(o); err != nil {
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
		low.Note = &n
	}
	return low, nil
}
