package traffic

import (
	"math/rand"

	"stat4/internal/packet"
)

// This file is the scenario registry behind the detection-quality matrix
// (internal/detect): seeded, parameterized workloads that carry their own
// machine-readable ground truth, so a scorer can compute time-to-detect and
// precision/recall against what *actually* happened rather than against a
// human reading a plot. Every scenario also names a benign control twin —
// the same background load with the anomaly removed — which is what
// false-alarm rates are measured on.

// TimeWindow is one half-open [StartNs, EndNs) interval of virtual time.
type TimeWindow struct {
	StartNs uint64 `json:"start_ns"`
	EndNs   uint64 `json:"end_ns"`
}

// Truth is a scenario's machine-readable ground truth on the virtual clock.
type Truth struct {
	// Attacks are the intervals during which the anomaly is active.
	Attacks []TimeWindow `json:"attacks"`
	// CulpritSrcs are the attacking source addresses (as uint64 /32 keys) —
	// what a heavy-hitter drill-down should name. Empty when the anomaly has
	// no single responsible source (e.g. a flash crowd).
	CulpritSrcs []uint64 `json:"culprit_srcs,omitempty"`
	// VictimGroups are the destination-group indices (low byte of the
	// destination in the scenario's group space) absorbing the anomaly.
	VictimGroups []uint64 `json:"victim_groups,omitempty"`
}

// Scenario is one registered workload: an attack trace, its ground truth,
// and a benign control twin. Build and Benign return fresh streams on every
// call, so a scenario can be replayed any number of times (inject once,
// tally ground truth again) with identical bytes for the same seed.
type Scenario struct {
	Name string
	// EndNs is the trace length; truth windows lie inside [0, EndNs).
	EndNs uint64
	// Truth is the ground truth of the attack trace.
	Truth Truth
	// DetectableBy tags the detector tracks this scenario is designed to
	// trip (the internal/detect track names: "entropy", "hh", "window").
	// Quality gates compare configurations on the scenarios their track is
	// expected to catch; the scorer still runs and reports every pairing.
	DetectableBy []string
	// Build returns the attack stream for a seed.
	Build func(seed int64) Stream
	// Benign returns the benign control twin: the same background traffic
	// with the anomaly removed.
	Benign func(seed int64) Stream
}

// PortScan emits TCP SYNs from one source sweeping destination hosts and
// ports — the classic slow-scan signature: low rate, high fan-out, a single
// talkative source.
type PortScan struct {
	Src     packet.IP4
	DstBase packet.IP4 // scanned hosts are DstBase + [0, Hosts)
	Hosts   int
	Rate    float64
	Start   uint64
	End     uint64
	Seed    int64
	Jitter  float64

	rng   *rand.Rand
	now   float64
	dport uint16
}

// Next implements Stream.
func (g *PortScan) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
		g.dport = 1
	}
	g.now += gap(g.rng, g.Rate, g.Jitter)
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	dst := packet.IP4(uint32(g.DstBase) + uint32(g.rng.Intn(g.Hosts)))
	g.dport++
	if g.dport > 1024 {
		g.dport = 1
	}
	f := packet.NewTCPFrame(g.Src, dst, uint16(40000+g.rng.Intn(1024)), g.dport, packet.FlagSYN)
	return Pkt{TsNs: ts, Frame: f}, true
}

// ZipfShift emits UDP packets toward one destination whose source is
// Base + key with key drawn zipfian over [0, Sources) — and at ShiftAt the
// popularity ranking is rotated by Offset, so a new set of elephants takes
// over mid-trace. Offset 0 yields the benign twin: the same zipfian mix with
// no change point.
type ZipfShift struct {
	Dest    packet.IP4
	Base    packet.IP4
	Sources uint64
	S       float64 // zipf exponent
	Rate    float64
	ShiftAt uint64 // virtual ns of the popularity shift
	Offset  uint64 // rank rotation applied from ShiftAt on (0 = no shift)
	Start   uint64
	End     uint64
	Seed    int64
	Jitter  float64

	rng  *rand.Rand
	zipf *rand.Zipf
	now  float64
}

// Next implements Stream.
func (g *ZipfShift) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.zipf = rand.NewZipf(rand.New(rand.NewSource(g.Seed+1)), g.S, 1, g.Sources-1)
		g.now = float64(g.Start)
	}
	g.now += gap(g.rng, g.Rate, g.Jitter)
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	v := g.zipf.Uint64()
	if g.Offset != 0 && ts >= g.ShiftAt {
		v = (v + g.Offset) % g.Sources
	}
	src := packet.IP4(uint32(g.Base) + uint32(v))
	return Pkt{TsNs: ts, Frame: packet.NewUDPFrame(src, g.Dest, 40003, 80, 64)}, true
}

// Slowloris emits a steady trickle of fresh connection attempts (SYNs, each
// from a new source port) from a small set of sources toward one victim —
// high connection churn at low packet rate, invisible to volume detectors
// but a talkative-source signature for heavy-hitter tracking.
type Slowloris struct {
	Dest  packet.IP4
	Srcs  []packet.IP4
	Rate  float64 // aggregate new-connection rate
	Start uint64
	End   uint64
	Seed  int64

	rng   *rand.Rand
	now   float64
	sport uint16
}

// Next implements Stream.
func (g *Slowloris) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
		g.sport = 1024
	}
	g.now += g.rng.ExpFloat64() * 1e9 / g.Rate
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	src := g.Srcs[g.rng.Intn(len(g.Srcs))]
	g.sport++
	if g.sport < 1024 {
		g.sport = 1024
	}
	f := packet.NewTCPFrame(src, g.Dest, g.sport, 80, packet.FlagSYN)
	return Pkt{TsNs: ts, Frame: f}, true
}

// Scenario construction constants: every scenario lives in the same address
// plan so one detector configuration applies across the whole registry.
// Destinations are the 10.0.0.0/24 group space (group = low byte), benign
// sources live in 198.18.0.0/16, attackers in 203.0.113.0/24 and
// 198.51.100.0/24.
var (
	scnVictimSpike  = packet.ParseIP4(10, 0, 0, 77)
	scnVictimCrowd  = packet.ParseIP4(10, 0, 0, 42)
	scnVictimSingle = packet.ParseIP4(10, 0, 0, 9)
	scnVictimLoris  = packet.ParseIP4(10, 0, 0, 5)
	scnVictimChurn  = packet.ParseIP4(10, 0, 0, 111)
	scnSpikeSrc     = packet.ParseIP4(198, 51, 100, 7) // Spike's fixed source
	scnScanSrc      = packet.ParseIP4(203, 0, 113, 66)
	scnSrcBase      = packet.ParseIP4(198, 18, 0, 0)
	scnMiceBase     = packet.ParseIP4(100, 64, 0, 0) // spoofed mouse-flood id space
)

// scnDests returns the first n destination groups 10.0.0.[0,n).
func scnDests(n int) []packet.IP4 {
	dests := make([]packet.IP4, n)
	for i := range dests {
		dests[i] = packet.ParseIP4(10, 0, 0, byte(i))
	}
	return dests
}

// scale multiplies a full-scale instant (expressed in nanoseconds at scale
// 1.0) down to the requested trace scale.
func scaleNs(f float64, ns uint64) uint64 { return uint64(f * float64(ns)) }

// Registry returns the detection-quality scenario matrix at the given time
// scale: scale 1.0 is the full ~600 ms trace; smaller scales shrink every
// duration and truth window proportionally while rates stay fixed, so smoke
// runs see the same traffic intensity over fewer packets. Scale must be in
// (0, 1]; seeds are taken per replay via each scenario's Build/Benign.
func Registry(scale float64) []Scenario {
	if scale <= 0 || scale > 1 {
		panic("traffic: registry scale must be in (0, 1]")
	}
	s := func(ns uint64) uint64 { return scaleNs(scale, ns) }
	end := s(600e6)

	var reg []Scenario

	// pulse-ddos: a pulse-wave volumetric flood — three on/off bursts from
	// one source at one victim over balanced background, the evasion pattern
	// that defeats naive rate thresholds between pulses.
	pulses := []TimeWindow{
		{StartNs: s(120e6), EndNs: s(200e6)},
		{StartNs: s(300e6), EndNs: s(380e6)},
		{StartNs: s(480e6), EndNs: s(560e6)},
	}
	pulseBG := func(seed int64) Stream {
		return &LoadBalanced{Dests: scnDests(200), Rate: 40000, End: end, Seed: seed}
	}
	reg = append(reg, Scenario{
		Name:  "pulse-ddos",
		EndNs: end,
		Truth: Truth{
			Attacks:      pulses,
			CulpritSrcs:  []uint64{uint64(scnSpikeSrc)},
			VictimGroups: []uint64{77},
		},
		DetectableBy: []string{"entropy", "window", "hh"},
		Build: func(seed int64) Stream {
			streams := []Stream{pulseBG(seed)}
			for i, w := range pulses {
				streams = append(streams, &Spike{
					Dest: scnVictimSpike, Rate: 400000,
					Start: w.StartNs, End: w.EndNs, Seed: seed + int64(i) + 1,
				})
			}
			return Merge(streams...)
		},
		Benign: func(seed int64) Stream { return pulseBG(seed) },
	})

	// slow-scan: a single source sweeping hosts and ports under web
	// background — low volume, so rate windows and entropy stay quiet; the
	// scanner surfaces only as a talkative source.
	scanWin := TimeWindow{StartNs: s(180e6), EndNs: s(540e6)}
	scanBG := func(seed int64) Stream {
		return &WebMix{Dests: scnDests(20), Rate: 30000, End: end, Seed: seed}
	}
	reg = append(reg, Scenario{
		Name:  "slow-scan",
		EndNs: end,
		Truth: Truth{
			Attacks:     []TimeWindow{scanWin},
			CulpritSrcs: []uint64{uint64(scnScanSrc)},
		},
		DetectableBy: []string{"hh"},
		Build: func(seed int64) Stream {
			return Merge(scanBG(seed), &PortScan{
				Src: scnScanSrc, DstBase: scnDests(1)[0], Hosts: 256,
				Rate: 8000, Start: scanWin.StartNs, End: scanWin.EndNs, Seed: seed + 1,
			})
		},
		Benign: func(seed int64) Stream { return scanBG(seed) },
	})

	// flash-crowd: thousands of distinct sources converge on one
	// destination — the attack lookalike. Destination entropy collapses and
	// the rate window trips exactly as for a flood, but no single culprit
	// source exists; a drill-down that names one is wrong by construction.
	crowdWin := TimeWindow{StartNs: s(240e6), EndNs: end}
	crowdBG := func(seed int64) Stream {
		return &LoadBalanced{Dests: scnDests(200), Rate: 40000, End: end, Seed: seed}
	}
	reg = append(reg, Scenario{
		Name:  "flash-crowd",
		EndNs: end,
		Truth: Truth{
			Attacks:      []TimeWindow{crowdWin},
			VictimGroups: []uint64{42},
		},
		DetectableBy: []string{"entropy", "window"},
		Build: func(seed int64) Stream {
			return Merge(crowdBG(seed), &Sourced{
				Dest: scnVictimCrowd, Base: scnSrcBase,
				Values: UniformValues(8192), Rate: 300000,
				Start: crowdWin.StartNs, End: end, Seed: seed + 1,
			})
		},
		Benign: func(seed int64) Stream { return crowdBG(seed) },
	})

	// zipf-shift: a zipfian source mix toward one destination whose
	// popularity ranking rotates mid-trace — total rate and destination mix
	// never move; only the identity of the elephants changes.
	shiftAt := s(300e6)
	const shiftOff = 1000
	reg = append(reg, Scenario{
		Name:  "zipf-shift",
		EndNs: end,
		Truth: Truth{
			Attacks: []TimeWindow{{StartNs: shiftAt, EndNs: end}},
			// Post-shift rank 0 — the new top talker.
			CulpritSrcs:  []uint64{uint64(scnSrcBase) + shiftOff},
			VictimGroups: []uint64{9},
		},
		DetectableBy: []string{"hh"},
		Build: func(seed int64) Stream {
			return &ZipfShift{
				Dest: scnVictimSingle, Base: scnSrcBase, Sources: 4096, S: 1.3,
				Rate: 150000, ShiftAt: shiftAt, Offset: shiftOff,
				End: end, Seed: seed,
			}
		},
		Benign: func(seed int64) Stream {
			return &ZipfShift{
				Dest: scnVictimSingle, Base: scnSrcBase, Sources: 4096, S: 1.3,
				Rate: 150000, End: end, Seed: seed,
			}
		},
	})

	// slowloris: four sources drip fresh connection attempts at a victim —
	// negligible volume (no window trip, no entropy move at 6k over 30k
	// background), but the attacking sources dominate the talker ranking.
	lorisWin := TimeWindow{StartNs: s(180e6), EndNs: end}
	lorisSrcs := []packet.IP4{
		packet.ParseIP4(203, 0, 113, 2), packet.ParseIP4(203, 0, 113, 3),
		packet.ParseIP4(203, 0, 113, 4), packet.ParseIP4(203, 0, 113, 5),
	}
	lorisBG := func(seed int64) Stream {
		return &WebMix{Dests: scnDests(20), Rate: 30000, End: end, Seed: seed}
	}
	reg = append(reg, Scenario{
		Name:  "slowloris",
		EndNs: end,
		Truth: Truth{
			Attacks: []TimeWindow{lorisWin},
			CulpritSrcs: []uint64{
				uint64(lorisSrcs[0]), uint64(lorisSrcs[1]),
				uint64(lorisSrcs[2]), uint64(lorisSrcs[3]),
			},
			VictimGroups: []uint64{5},
		},
		DetectableBy: []string{"hh"},
		Build: func(seed int64) Stream {
			return Merge(lorisBG(seed), &Slowloris{
				Dest: scnVictimLoris, Srcs: lorisSrcs, Rate: 6000,
				Start: lorisWin.StartNs, End: lorisWin.EndNs, Seed: seed + 1,
			})
		},
		Benign: func(seed int64) Stream { return lorisBG(seed) },
	})

	// multi-vector: a volumetric pulse followed by an overlapping slow scan
	// — one trace, two distinct anomalies, two culprits. A matrix cell is
	// scored on catching both windows, and the drill-down on naming both
	// sources. Only the heavy-hitter track sees both vectors (the scan
	// neither moves entropy nor rates), so only it is tagged detectable.
	mvPulse := TimeWindow{StartNs: s(180e6), EndNs: s(300e6)}
	mvScan := TimeWindow{StartNs: s(330e6), EndNs: s(540e6)}
	mvBG := func(seed int64) Stream {
		return &LoadBalanced{Dests: scnDests(200), Rate: 40000, End: end, Seed: seed}
	}
	reg = append(reg, Scenario{
		Name:  "multi-vector",
		EndNs: end,
		Truth: Truth{
			Attacks:      []TimeWindow{mvPulse, mvScan},
			CulpritSrcs:  []uint64{uint64(scnSpikeSrc), uint64(scnScanSrc)},
			VictimGroups: []uint64{77},
		},
		DetectableBy: []string{"hh"},
		Build: func(seed int64) Stream {
			return Merge(mvBG(seed),
				&Spike{Dest: scnVictimSpike, Rate: 300000,
					Start: mvPulse.StartNs, End: mvPulse.EndNs, Seed: seed + 1},
				&PortScan{Src: scnScanSrc, DstBase: scnDests(1)[0], Hosts: 256,
					Rate: 10000, Start: mvScan.StartNs, End: mvScan.EndNs, Seed: seed + 2},
			)
		},
		Benign: func(seed int64) Stream { return mvBG(seed) },
	})

	// flow-churn: a million-flow zipfian mix — a stable elephant head over a
	// churning mouse tail — hit mid-trace by a flow-creation flood: a storm
	// of short-lived spoofed mouse flows converging on one victim.
	// Destination entropy collapses, but no single culprit source exists and
	// the live flow set dwarfs any dense per-key array — the sparse
	// flow-table's home turf. Only the entropy track is gated: the flood
	// also lifts the victim-net rate, but the 5-tuple shard dispatch spreads
	// the churning background unevenly enough that the per-shard σ-band's
	// benign quietness margin is too thin to gate on. The background rate is
	// load-bearing: at 150k pps the head destinations pass 4096 packets
	// within the trace, so narrow-cell detectors (ent-saturated's 12-bit
	// registers) wrap and misfire on the benign twin — saturation has to
	// cost something even at one shard, or the dominance audit can't
	// separate it from the healthy config.
	churnWin := TimeWindow{StartNs: s(260e6), EndNs: end}
	churnBG := func(seed int64) Stream {
		return &FlowMix{
			Dests: scnDests(200), Base: scnSrcBase, Flows: 1 << 20,
			Stable: 4096, ChurnNs: s(75e6), S: 1.1, Rate: 150000,
			End: end, Seed: seed,
		}
	}
	reg = append(reg, Scenario{
		Name:  "flow-churn",
		EndNs: end,
		Truth: Truth{
			Attacks:      []TimeWindow{churnWin},
			VictimGroups: []uint64{111},
		},
		DetectableBy: []string{"entropy"},
		Build: func(seed int64) Stream {
			return Merge(churnBG(seed), &FlowMix{
				Dests: []packet.IP4{scnVictimChurn}, Base: scnMiceBase,
				Flows: 1 << 18, ChurnNs: s(4e6), S: 1.1, Rate: 1800000,
				Start: churnWin.StartNs, End: end, Seed: seed + 1,
			})
		},
		Benign: func(seed int64) Stream { return churnBG(seed) },
	})

	return reg
}

// FindScenario returns the named scenario from a registry, or false.
func FindScenario(reg []Scenario, name string) (Scenario, bool) {
	for _, sc := range reg {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
