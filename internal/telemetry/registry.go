package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Registry maps names to recorders and renders them two ways: a
// Prometheus-style text exposition (WriteProm) and a JSON snapshot
// (Snapshot/WriteJSON). Registration order is preserved so output is
// deterministic. Every exposed value is an integer — the registry refuses
// nothing at render time because the recorders cannot hold anything else.
type Registry struct {
	prefix    string
	hists     []histEntry
	counters  []counterEntry
	gauges    []gaugeEntry
	timelines []timelineEntry
}

type histEntry struct {
	name, help string
	h          *Hist
}

type counterEntry struct {
	name, help string
	fn         func() uint64
}

type gaugeEntry struct {
	name, help string
	fn         func() uint64
}

type timelineEntry struct {
	name, help string
	t          *Timeline
}

// NewRegistry returns an empty registry. Series are named prefix_name;
// prefix and every registered name must match Prometheus metric-name rules
// ([a-zA-Z_][a-zA-Z0-9_]*).
func NewRegistry(prefix string) *Registry {
	mustValidName(prefix)
	return &Registry{prefix: prefix}
}

func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// RegisterHist adds a histogram under prefix_name.
func (r *Registry) RegisterHist(name, help string, h *Hist) {
	mustValidName(name)
	r.hists = append(r.hists, histEntry{name: name, help: help, h: h})
}

// RegisterCounter adds a counter read through fn at render time, so switch
// Stats() fields and accessors register directly.
func (r *Registry) RegisterCounter(name, help string, fn func() uint64) {
	mustValidName(name)
	r.counters = append(r.counters, counterEntry{name: name, help: help, fn: fn})
}

// RegisterGauge adds a gauge read through fn at render time. Gauges are for
// instantaneous occupancy-style values (ring depth, slab blocks in use) that
// go down as well as up, which is the only difference from RegisterCounter —
// the exposition marks them TYPE gauge so scrapers do not rate() them.
func (r *Registry) RegisterGauge(name, help string, fn func() uint64) {
	mustValidName(name)
	r.gauges = append(r.gauges, gaugeEntry{name: name, help: help, fn: fn})
}

// RegisterTimeline adds a timeline under prefix_name.
func (r *Registry) RegisterTimeline(name, help string, t *Timeline) {
	mustValidName(name)
	r.timelines = append(r.timelines, timelineEntry{name: name, help: help, t: t})
}

// HistSnapshot is one histogram's rendered state. P50/P99 come from the
// Figure 3 percentile markers; LogSD is the lazy standard deviation of the
// scaled log-domain moments and SDRecomputes how often its square root
// actually ran.
type HistSnapshot struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	// P50Moves/P99Moves are the markers' single-slot movement counts (the
	// percentile change rate the paper tracks as a signal).
	P50Moves uint64 `json:"p50_moves"`
	P99Moves uint64 `json:"p99_moves"`
	// LogSum is Xsum of the log2 fixed-point samples (HistFracBits fraction
	// bits); LogSD the standard deviation of the scaled log-domain
	// distribution N·X.
	LogSum       uint64 `json:"log_sum"`
	LogSD        uint64 `json:"log_sd"`
	SDRecomputes uint64 `json:"sd_recomputes"`
}

func snapshotHist(name string, h *Hist) HistSnapshot {
	m := h.LogMoments()
	return HistSnapshot{
		Name:  name,
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.P50(), P99: h.P99(),
		P50Moves: h.P50Moves(), P99Moves: h.P99Moves(),
		LogSum: m.Sum, LogSD: m.StdDev(), SDRecomputes: m.SDRecomputes,
	}
}

// CounterSnapshot is one counter's rendered state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// TimelineSnapshot is one timeline's rendered state.
type TimelineSnapshot struct {
	Name    string          `json:"name"`
	Entries []TimelineEntry `json:"entries"`
	Dropped uint64          `json:"dropped"`
}

// Snapshot is the JSON dump of a registry.
type Snapshot struct {
	Prefix    string             `json:"prefix"`
	Hists     []HistSnapshot     `json:"hists"`
	Counters  []CounterSnapshot  `json:"counters"`
	Gauges    []CounterSnapshot  `json:"gauges,omitempty"`
	Timelines []TimelineSnapshot `json:"timelines,omitempty"`
}

// Snapshot renders every registered recorder.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Prefix: r.prefix}
	for _, e := range r.hists {
		s.Hists = append(s.Hists, snapshotHist(e.name, e.h))
	}
	for _, e := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Value: e.fn()})
	}
	for _, e := range r.gauges {
		s.Gauges = append(s.Gauges, CounterSnapshot{Name: e.name, Value: e.fn()})
	}
	for _, e := range r.timelines {
		s.Timelines = append(s.Timelines, TimelineSnapshot{
			Name: e.name, Entries: e.t.Entries(), Dropped: e.t.Dropped(),
		})
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// WriteProm writes a Prometheus-style text exposition. Histograms render as
// summaries (quantile-labelled series from the percentile markers plus
// _sum/_count/_min/_max and the marker change rates), counters as counters,
// gauges as gauges, timelines as one labelled sample per transition.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, e := range r.hists {
		full := r.prefix + "_" + e.name
		s := snapshotHist(e.name, e.h)
		if _, err := fmt.Fprintf(w,
			"# HELP %s %s\n# TYPE %s summary\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.99\"} %d\n%s_sum %d\n%s_count %d\n%s_min %d\n%s_max %d\n%s_marker_moves{quantile=\"0.5\"} %d\n%s_marker_moves{quantile=\"0.99\"} %d\n%s_log_sd %d\n%s_sd_recomputes %d\n",
			full, e.help, full,
			full, s.P50, full, s.P99,
			full, s.Sum, full, s.Count, full, s.Min, full, s.Max,
			full, s.P50Moves, full, s.P99Moves,
			full, s.LogSD, full, s.SDRecomputes); err != nil {
			return err
		}
	}
	for _, e := range r.counters {
		full := r.prefix + "_" + e.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			full, e.help, full, full, e.fn()); err != nil {
			return err
		}
	}
	for _, e := range r.gauges {
		full := r.prefix + "_" + e.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			full, e.help, full, full, e.fn()); err != nil {
			return err
		}
	}
	for _, e := range r.timelines {
		full := r.prefix + "_" + e.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", full, e.help, full); err != nil {
			return err
		}
		for i, en := range e.t.Entries() {
			if _, err := fmt.Fprintf(w, "%s{seq=\"%d\",code=\"%d\"} %d\n",
				full, i, en.Code, en.AtNs); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateExposition checks that data is a well-formed integer-only
// exposition as WriteProm emits it: comment lines start with "# ", every
// other non-empty line is `name[{label="value",...}] integer-value` with a
// valid metric name. It returns the number of samples on success. The
// metrics-smoke gate runs a replay with -metrics through this.
//
//stat4:exempt:reachable (a) test reference: the exposition checker the tests of telemetry, ingest, stat4d and stat4-replay hold WriteProm output to
func ValidateExposition(data string) (int, error) {
	samples := 0
	for ln, line := range strings.Split(data, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				return samples, fmt.Errorf("line %d: unterminated label set: %q", ln+1, line)
			}
			for _, lbl := range strings.Split(line[i+1:j], ",") {
				k, v, ok := strings.Cut(lbl, "=")
				if !ok || !validName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return samples, fmt.Errorf("line %d: malformed label %q", ln+1, lbl)
				}
			}
			name = line[:i]
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return samples, fmt.Errorf("line %d: want `name value`, got %q", ln+1, line)
		}
		if !validName(fields[0]) {
			return samples, fmt.Errorf("line %d: invalid metric name %q", ln+1, fields[0])
		}
		if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
			return samples, fmt.Errorf("line %d: non-integer sample %q (the telemetry layer is integer-only)", ln+1, fields[1])
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples in exposition")
	}
	return samples, nil
}
