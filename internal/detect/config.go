package detect

import (
	"math/bits"

	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

// Track names one detector family being scored; values match the
// traffic.Scenario.DetectableBy tags.
type Track string

const (
	// TrackEntropy scores the destination-entropy collapse check.
	TrackEntropy Track = "entropy"
	// TrackHH scores probabilistic-recirculation heavy hitters.
	TrackHH Track = "hh"
	// TrackWindow scores the σ-band time-window check of the case study.
	TrackWindow Track = "window"
)

// alertKind is the stat4p4.DecodeDigest kind each track's detector raises.
var alertKind = map[Track]string{
	TrackEntropy: "entropy",
	TrackHH:      "heavy-hitter",
	TrackWindow:  "anomaly",
}

// Config is one detector configuration in the quality matrix: program
// options plus a binding recipe. Pathological configs are deliberately
// broken variants of a healthy twin — the dominance assertion requires each
// to score strictly worse on every scenario its track should catch,
// otherwise the scorer itself has a bug.
type Config struct {
	Name         string
	Track        Track
	Pathological bool
	// HealthyTwin names the healthy config this pathology degrades.
	HealthyTwin string
	// Note says what is wrong with a pathological config (or what the
	// healthy config measures).
	Note string
	// Opts builds the program; taken by value so every cell compiles fresh.
	Opts stat4p4.Options
	// Binding is the recipe. Its SampleShift also scales heavy-hitter
	// candidate counts back to packet estimates (each promotion stands for
	// ~2^SampleShift packets); a window track's interval width is set per
	// trace by Bind.
	Binding stat4p4.Binding
}

// Bind applies the recipe and returns the warmup horizon before which alerts
// are unscorable (the detector is still priming).
func (c Config) Bind(rt *stat4p4.Runtime, endNs uint64) (warmupNs uint64, err error) {
	bd := c.Binding
	if c.Track == TrackWindow {
		bd.IntervalShift = windowShift(endNs)
		warmupNs = windowWarmup(endNs)
	}
	_, err = rt.Bind(bd)
	return warmupNs, err
}

// The shared address plan of the scenario registry: destinations live in
// 10.0.0.0/24 (group = low byte).
var (
	detGroupBase = uint64(packet.ParseIP4(10, 0, 0, 0))
	detVictimNet = packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	detDeafNet   = packet.NewPrefix(packet.ParseIP4(172, 16, 0, 0), 12)
)

// entropyH0 is the collapse threshold: 4 bits of destination entropy at the
// library's canonical 2^16 fixed-point scale. Balanced background sits near
// log2(200) ≈ 7.6 bits; a single-victim flood drags the mix toward 0.
const entropyH0 = 4 << 16

// entropyCheckEvery gates the division-free collapse check to every 1024th
// observation (must be a power of two).
const entropyCheckEvery = 1024

// hhSampleShift is the healthy recirculation coin: promote with probability
// 2^-8, so a candidate count of c estimates c·256 packets.
const hhSampleShift = 8

// windowShift picks the interval width for the σ-band window so a trace of
// endNs spans ~256 intervals regardless of scale (floor 2^14 ns keeps
// intervals meaningful on tiny smoke traces).
func windowShift(endNs uint64) uint {
	target := endNs / 256
	if target == 0 {
		return 14
	}
	sh := uint(bits.Len64(target)) - 1
	if sh < 14 {
		sh = 14
	}
	return sh
}

// windowWarmup is the priming horizon for window configs: 48 intervals —
// enough to fill the 32-interval window and let σ settle.
func windowWarmup(endNs uint64) uint64 { return 48 << windowShift(endNs) }

// broken returns a pathological twin of a healthy config: the same program
// and recipe with one thing wrong.
func (c Config) broken(name, note string, breakIt func(*Config)) Config {
	c.Name, c.HealthyTwin = name, c.Name
	c.Note, c.Pathological = note, true
	breakIt(&c)
	return c
}

// Configs returns the detector-configuration registry: one healthy config
// per track plus its pathological degradations.
func Configs() []Config {
	entropy := Config{
		Name: "entropy", Track: TrackEntropy,
		Note: "destination entropy over the /24 group space, collapse below 4 bits",
		Opts: stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Entropy: true, DigestBuf: 8192},
		Binding: stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.AllIPv4(),
			Base: detGroupBase, Size: 256, H0: entropyH0, CheckEvery: entropyCheckEvery},
	}
	hh := Config{
		Name: "hh", Track: TrackHH,
		Note:    "per-source recirculation coin at 2^-8 into a 128-entry candidate table",
		Opts:    stat4p4.Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true, HHTableSize: 128, DigestBuf: 8192},
		Binding: stat4p4.Binding{Kind: "hh-src", Match: stat4p4.AllIPv4(), SampleShift: hhSampleShift},
	}
	window := Config{
		Name: "window", Track: TrackWindow,
		Note:    "σ-band packet-rate window over 10.0.0.0/8: 32 intervals, k = 4",
		Opts:    stat4p4.Options{Slots: 1, Size: 256, Stages: 1, DigestBuf: 8192},
		Binding: stat4p4.Binding{Kind: "window", Match: stat4p4.DstIn(detVictimNet), Capacity: 32, K: 4},
	}
	return []Config{
		entropy,
		entropy.broken("ent-misbound",
			"table bound to 172.16.0.0 — no scenario packet ever lands in the group space",
			func(c *Config) { c.Binding.Base = uint64(packet.ParseIP4(172, 16, 0, 0)) }),
		entropy.broken("ent-fracmis",
			"frac width 1 with the threshold still scaled 2^16 — effective h0 of 2^17 bits, alarms on everything",
			func(c *Config) { c.Opts.EntropyFrac = 1 }),
		entropy.broken("ent-saturated",
			"12-bit register cells — counters and the S accumulator wrap within a trace, the check fires on garbage",
			func(c *Config) { c.Opts.CellWidth = 12 }),
		hh,
		hh.broken("hh-starved",
			"coin at 2^-30 — no flow in a sub-second trace ever wins recirculation",
			func(c *Config) { c.Binding.SampleShift = 30 }),
		hh.broken("hh-squashed",
			"key shift 32 squashes every source to key 0 — the table fills with one meaningless flow",
			func(c *Config) { c.Binding.Shift = 32 }),
		window,
		window.broken("win-deaf",
			"window bound to 172.16.0.0/12 — matches nothing, never alarms",
			func(c *Config) { c.Binding.Match = stat4p4.DstIn(detDeafNet) }),
		window.broken("win-hair",
			"k = 0 — alarms on any interval above the running mean, ~half of benign time",
			func(c *Config) { c.Binding.K = 0 }),
	}
}

// FindConfig returns the named config from a registry, or false.
func FindConfig(cfgs []Config, name string) (Config, bool) {
	for _, c := range cfgs {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}
