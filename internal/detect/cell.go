package detect

import (
	"fmt"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// heavyShare is the share of total packets a key must hold to count as a
// heavy hitter, both in ground truth and in reported estimates.
const heavyShare = 0.02

// evalWindows is how many fixed windows the virtual clock is cut into for
// temporal precision/recall.
const evalWindows = 32

// defaultCtrlDelayNs is the switch→controller digest latency: 1 ms, as in
// the case study.
const defaultCtrlDelayNs = 1_000_000

// Cell is one point of the quality matrix: a scenario replayed against a
// detector configuration at a shard count.
type Cell struct {
	Scenario traffic.Scenario
	Config   Config
	Shards   int
	Seed     int64
	// CtrlDelayNs is the digest delivery latency (0 → 1 ms).
	CtrlDelayNs uint64
}

// Result is the scored outcome of one cell. Metric semantics are per track:
// temporal tracks (entropy, window) score fixed evaluation windows, the
// heavy-hitter track scores the ≥2%-share key sets; BenignFlagged is the
// flagged-window fraction for the former and the misidentification rate
// (1 − precision of the benign heavy set) for the latter.
type Result struct {
	Scenario string `json:"scenario"`
	Config   string `json:"config"`
	Track    string `json:"track"`
	Shards   int    `json:"shards"`
	// Sched is always "wheel", the simulator's engine. It stays in the
	// report and the cell key so earlier DETECT artifacts remain valid
	// baselines.
	Sched        string `json:"sched"`
	Pathological bool   `json:"pathological,omitempty"`
	HealthyTwin  string `json:"healthy_twin,omitempty"`
	// Detectable records whether the scenario tags this config's track in
	// DetectableBy — the cells quality gates compare on.
	Detectable bool `json:"detectable"`

	Packets       uint64 `json:"packets"`
	BenignPackets uint64 `json:"benign_packets"`
	Alerts        int    `json:"alerts"`
	BenignAlerts  int    `json:"benign_alerts"`

	AttacksTotal    int      `json:"attacks_total"`
	AttacksDetected int      `json:"attacks_detected"`
	TTDNs           *float64 `json:"ttd_ns"` // mean time-to-detect; null when nothing was detected
	Precision       float64  `json:"precision"`
	Recall          float64  `json:"recall"`
	F1              float64  `json:"f1"`
	Drilldown       *float64 `json:"drilldown"` // culprit surfacing accuracy; null without culprit truth

	FalseAlarmsPerSec float64 `json:"false_alarms_per_sec"`
	BenignFlagged     float64 `json:"benign_flagged"`

	// Quality is the composite Q ∈ [0, 1] the dominance and regression
	// gates compare: attack-scoring F1 (blended with drill-down and
	// culprit-window detection for heavy hitters) discounted by the
	// benign-twin false-alarm measure.
	Quality float64 `json:"quality"`
}

// Key identifies a cell across runs and baselines.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%d/%s", r.Scenario, r.Config, r.Shards, r.Sched)
}

// replayOut is what one simulator pass yields.
type replayOut struct {
	alerts     []Alert
	candidates []stat4p4.Entry
	warmupNs   uint64
}

// replay compiles the config, binds it, replays one stream through the
// simulator and collects the track's digest stream (and, for heavy hitters,
// the merged candidate table).
func replay(c Cell, stream traffic.Stream) (replayOut, error) {
	var out replayOut
	lib := stat4p4.Build(c.Config.Opts)

	rt, err := stat4p4.NewShardedRuntime(lib, c.Shards)
	if err != nil {
		return out, fmt.Errorf("detect: runtime: %w", err)
	}
	defer rt.Close()
	out.warmupNs, err = c.Config.Bind(rt, c.Scenario.EndNs)
	if err != nil {
		return out, fmt.Errorf("detect: bind %s: %w", c.Config.Name, err)
	}

	ctrl := c.CtrlDelayNs
	if ctrl == 0 {
		ctrl = defaultCtrlDelayNs
	}
	want := alertKind[c.Config.Track]
	var decodeErr error
	onDigest := func(now uint64, d p4.Digest) {
		dec, err := stat4p4.DecodeDigest(d)
		if err != nil {
			decodeErr = err
			return
		}
		if dec.Kind != want {
			return
		}
		a := Alert{TsNs: now}
		if c.Config.Track == TrackHH {
			a.Key = dec.Values[0]
		}
		out.alerts = append(out.alerts, a)
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), ctrl)
	node.OnDigest = onDigest
	node.InjectStream(stream, 1)
	sim.Run()
	if decodeErr != nil {
		return out, fmt.Errorf("detect: %w", decodeErr)
	}

	if c.Config.Track == TrackHH {
		hh, err := stat4p4.Read(rt, stat4p4.HeavyHitters, 0)
		if err != nil {
			return out, fmt.Errorf("detect: read candidates: %w", err)
		}
		out.candidates = hh.Entries
	}
	return out, nil
}

// Run replays a cell's attack trace and benign twin and scores them.
func Run(c Cell) (Result, error) {
	res := Result{
		Scenario:     c.Scenario.Name,
		Config:       c.Config.Name,
		Track:        string(c.Config.Track),
		Shards:       c.Shards,
		Sched:        "wheel",
		Pathological: c.Config.Pathological,
		HealthyTwin:  c.Config.HealthyTwin,
	}
	for _, t := range c.Scenario.DetectableBy {
		if t == string(c.Config.Track) {
			res.Detectable = true
		}
	}

	atk, err := replay(c, c.Scenario.Build(c.Seed))
	if err != nil {
		return res, err
	}
	ben, err := replay(c, c.Scenario.Benign(c.Seed))
	if err != nil {
		return res, err
	}
	res.Alerts = len(atk.alerts)
	res.BenignAlerts = len(ben.alerts)

	atkTally, atkTotal := TallySrcs(c.Scenario.Build(c.Seed))
	benTally, benTotal := TallySrcs(c.Scenario.Benign(c.Seed))
	res.Packets = atkTotal
	res.BenignPackets = benTotal

	endNs := c.Scenario.EndNs
	seconds := float64(endNs) / 1e9
	if seconds > 0 {
		res.FalseAlarmsPerSec = float64(len(ben.alerts)) / seconds
	}

	if c.Config.Track == TrackHH {
		scoreHH(&res, c, atk, ben, atkTally, atkTotal, benTally, benTotal)
	} else {
		t := ScoreTemporal(c.Scenario.Truth, endNs, atk.warmupNs, evalWindows, atk.alerts)
		res.AttacksTotal = t.AttacksTotal
		res.AttacksDetected = t.AttacksDetected
		res.TTDNs = t.MeanTTDNs
		res.Precision, res.Recall, res.F1 = t.Precision, t.Recall, t.F1
		res.BenignFlagged = FlaggedFraction(endNs, ben.warmupNs, evalWindows, ben.alerts)
		res.Quality = t.F1 * (1 - res.BenignFlagged)
	}
	return res, nil
}

// scoreHH grades the heavy-hitter track: set precision/recall at the heavy
// share threshold, drill-down accuracy over the candidate table, per-attack
// culprit detection timing, and benign misidentification.
func scoreHH(res *Result, c Cell, atk, ben replayOut, atkTally map[uint64]uint64, atkTotal uint64, benTally map[uint64]uint64, benTotal uint64) {
	reported := estimatedHeavy(atk.candidates, c.Config.Binding.SampleShift, atkTotal)
	truthSet := HeavySet(atkTally, atkTotal, heavyShare)
	res.Precision, res.Recall, res.F1 = SetPRF(reported, truthSet)

	// Drill-down: culprits surfaced anywhere in the candidate table.
	truth := c.Scenario.Truth
	if len(truth.CulpritSrcs) > 0 {
		inTable := make(map[uint64]bool, len(atk.candidates))
		for _, e := range atk.candidates {
			inTable[e.Key] = true
		}
		hit := 0
		for _, k := range truth.CulpritSrcs {
			if inTable[k] {
				hit++
			}
		}
		d := float64(hit) / float64(len(truth.CulpritSrcs))
		res.Drilldown = &d
	}

	// Per-attack detection: the first promotion of a culprit key inside the
	// attack interval (one evaluation window of grace past its end).
	res.AttacksTotal = len(truth.Attacks)
	if len(truth.CulpritSrcs) > 0 {
		culprit := make(map[uint64]bool, len(truth.CulpritSrcs))
		for _, k := range truth.CulpritSrcs {
			culprit[k] = true
		}
		grace := c.Scenario.EndNs / evalWindows
		var ttdSum float64
		for _, w := range truth.Attacks {
			best, found := uint64(0), false
			for _, a := range atk.alerts {
				if !culprit[a.Key] || a.TsNs < w.StartNs || a.TsNs >= w.EndNs+grace {
					continue
				}
				if !found || a.TsNs < best {
					best, found = a.TsNs, true
				}
			}
			if found {
				res.AttacksDetected++
				ttdSum += float64(best - w.StartNs)
			}
		}
		if res.AttacksDetected > 0 {
			m := ttdSum / float64(res.AttacksDetected)
			res.TTDNs = &m
		}
	}

	// Benign misidentification: keys reported heavy on the twin that are not
	// genuinely heavy there.
	benReported := estimatedHeavy(ben.candidates, c.Config.Binding.SampleShift, benTotal)
	if len(benReported) > 0 {
		p, _, _ := SetPRF(benReported, HeavySet(benTally, benTotal, heavyShare))
		res.BenignFlagged = 1 - p
	}

	base := res.F1
	if len(truth.CulpritSrcs) > 0 {
		detected := 0.0
		if res.AttacksTotal > 0 {
			detected = float64(res.AttacksDetected) / float64(res.AttacksTotal)
		}
		base = (res.F1 + *res.Drilldown + detected) / 3
	}
	res.Quality = base * (1 - res.BenignFlagged)
}

// estimatedHeavy scales candidate counts back to packet estimates
// (count · 2^sampleShift) and keeps the keys whose estimate clears the heavy
// share of the true total.
func estimatedHeavy(candidates []stat4p4.Entry, sampleShift uint, total uint64) map[uint64]bool {
	set := make(map[uint64]bool)
	if total == 0 {
		return set
	}
	floor := heavyShare * float64(total)
	for _, e := range candidates {
		est := float64(e.Count) * float64(uint64(1)<<sampleShift)
		if est >= floor {
			set[e.Key] = true
		}
	}
	return set
}
