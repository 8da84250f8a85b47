package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// A track is a named preset over the kind table: the vocabulary stat4d
// -track, POST /bind and stat4-replay -track share. Each is one binding on
// every IPv4 packet, built from the small parameter set below.

// TrackParams is what a track can be tuned with — the /bind wire message
// minus its mode. A track reads only its own parameters.
type TrackParams struct {
	Stage int `json:"stage"`
	Slot  int `json:"slot"`
	// Window track: 2^IntervalShift ns per interval, Window intervals.
	IntervalShift uint `json:"interval_shift"`
	Window        int  `json:"window"`
	// Base is the dotted-quad /16 whose /24 subnets dst24 and entropy index.
	Base string `json:"base"`
	Size int    `json:"size"`
	PA   uint64 `json:"pa"`
	PB   uint64 `json:"pb"`
	K    uint64 `json:"k"`
	// Entropy track: collapse threshold in bits (0 disables) and check
	// cadence in observations (power of two, 0 → every observation).
	H0Bits     float64 `json:"h0_bits"`
	CheckEvery uint64  `json:"check_every"`
	// SampleShift is the hh recirculation coin and the flow admission coin.
	SampleShift uint `json:"sample_shift"`
	// Flow track: expiry epoch exponent and epochs of silence before reclaim.
	EpochShift uint   `json:"epoch_shift"`
	TTL        uint64 `json:"ttl"`
}

// TrackDefaults is what a track runs with when nothing is said: the
// case-study window (100 intervals of 2^23 ns), whole-slot distributions on
// the median, 10.0.0.0/16, and flow entries reclaimed after 4 silent epochs.
var TrackDefaults = TrackParams{
	IntervalShift: 23, Window: 100,
	Base: "10.0.0.0", Size: 256, PA: 1, PB: 1,
	EpochShift: 23, TTL: 4,
}

// WithDefaults fills the parameters a wire message left at zero.
func (p TrackParams) WithDefaults() TrackParams {
	d := TrackDefaults
	if p.IntervalShift == 0 {
		p.IntervalShift = d.IntervalShift
	}
	if p.Window <= 0 {
		p.Window = d.Window
	}
	if p.Base == "" {
		p.Base = d.Base
	}
	if p.Size <= 0 {
		p.Size = d.Size
	}
	if p.PA == 0 && p.PB == 0 {
		p.PA, p.PB = d.PA, d.PB
	}
	if p.EpochShift == 0 {
		p.EpochShift = d.EpochShift
	}
	if p.TTL == 0 {
		p.TTL = d.TTL
	}
	return p
}

// track is one row of the preset table. shift is the track's fixed
// extraction granularity; based tracks index the /24 subnets of
// TrackParams.Base; a sampled track's coin is the commands' -sample-shift.
type track struct {
	name    string
	kind    string
	shift   uint
	based   bool
	sampled bool
}

// coreTracks are the presets over the core kinds; assemble (binding.go)
// adds each measure row's.
var coreTracks = []track{
	{name: "window", kind: "window"},
	{name: "dst24", kind: "freq-dst", shift: 8, based: true},
	{name: "proto", kind: "freq-proto"},
	{name: "len", kind: "freq-len", shift: 6},
}

// Tracks lists the track names in table order.
func Tracks() []string {
	out := make([]string, len(tracks))
	for i, t := range tracks {
		out[i] = t.name
	}
	return out
}

func findTrack(name string) (*track, error) {
	for i := range tracks {
		if tracks[i].name == name {
			return &tracks[i], nil
		}
	}
	return nil, fmt.Errorf("unknown track %q", name)
}

// FlagSampleShift is the coin a command's -sample-shift flag gives the named
// track: the flag's value for a sampled track (hh's), else 0.
func FlagSampleShift(track string, flag uint) uint {
	if t, err := findTrack(track); err == nil && t.sampled {
		return flag
	}
	return 0
}

// TrackBase is the sizing a one-track tool (stat4-replay -track) compiles
// its track over: one slot of 256 cells, one binding stage.
var TrackBase = Options{Slots: 1, Size: 256, Stages: 1}

// TrackOptions returns base with the measure the track's kind needs
// switched on, so a tool compiles in only the measure it was asked for.
func TrackOptions(name string, base Options) (Options, error) {
	t, err := findTrack(name)
	if err != nil {
		return base, err
	}
	if m := findKind(t.kind).needs; m != nil {
		*m.on(&base) = true
	}
	return base, nil
}

// TrackBinding builds the track's binding for this library. Parameters are
// taken as given; a caller whose zero means "unset" applies WithDefaults
// first.
func (l *Library) TrackBinding(name string, p TrackParams) (Binding, error) {
	t, err := findTrack(name)
	if err != nil {
		return Binding{}, err
	}
	b := Binding{
		Kind: t.kind, Stage: p.Stage, Slot: p.Slot, Match: AllIPv4(),
		IntervalShift: p.IntervalShift, Capacity: p.Window,
		Shift: t.shift, Size: p.Size, PA: p.PA, PB: p.PB, K: p.K,
		SampleShift: p.SampleShift, EpochShift: p.EpochShift, TTL: p.TTL,
	}
	for _, m := range measures {
		if m.trackBinding != nil {
			if err := m.trackBinding(l, p, &b); err != nil {
				return Binding{}, err
			}
		}
	}
	if t.based {
		base, err := parsePrefix(p.Base)
		if err != nil {
			return Binding{}, err
		}
		b.Base = uint64(base.Addr) >> 8
	}
	return b, nil
}

// BindTrack builds the track's binding for the runtime's library and
// installs it.
func BindTrack(rt *Runtime, name string, p TrackParams) (p4.EntryID, error) {
	b, err := rt.lib.TrackBinding(name, p)
	if err != nil {
		return 0, err
	}
	return rt.Bind(b)
}
