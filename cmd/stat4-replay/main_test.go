package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// TestMetricsSmoke is the metrics-smoke gate (`make metrics-smoke`): record a
// small synthetic capture, replay it with telemetry attached, and assert the
// exposition parses under the telemetry package's own validator and contains
// the digest-latency quantiles computed by the Stat4 percentile markers.
func TestMetricsSmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.5); err != nil {
		t.Fatal(err)
	}

	rm := newReplayMetrics(1)
	rt, _, err := replay(trace, trackConfig{Track: "window", TrackParams: stat4p4.TrackParams{IntervalShift: 23, Window: 20, K: 2}}, 1, rm)
	if rt != nil {
		rt.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	rm.sp.Refresh()

	var b strings.Builder
	if err := rm.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	n, err := telemetry.ValidateExposition(out)
	if err != nil {
		t.Fatalf("replay exposition invalid: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("no samples in replay exposition")
	}
	for _, want := range []string{
		"stat4_replay_packet_cost_ns{quantile=\"0.5\"}",
		"stat4_replay_digest_wait_ns{quantile=\"0.5\"}",
		"stat4_replay_digest_wait_ns{quantile=\"0.99\"}",
		"stat4_replay_pkts_in",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	sw := rm.sp.Merged
	if sw.Cost.Count() == 0 {
		t.Fatal("no packet costs recorded")
	}
	// The recorded capture contains a spike, so the window app emits
	// digests and the drain loop pairs them with their emit stamps.
	if sw.Delivered() == 0 || sw.DigestWait.Count() == 0 {
		t.Fatalf("no digest latencies recorded: delivered=%d waits=%d",
			sw.Delivered(), sw.DigestWait.Count())
	}
}

// TestReplayShardsAgree replays one recorded capture at one shard and at two
// and requires the same dst24 measures — the one shard's registers against
// the two shards' merge — and alerts of the same kinds from both. The alert
// counts differ, and must: each shard checks mean + kσ over its own share of
// the traffic (15 948 alerts on one shard, 14 403 on two for this capture).
func TestReplayShardsAgree(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.5); err != nil {
		t.Fatal(err)
	}
	tc := trackConfig{Track: "dst24", TrackParams: stat4p4.TrackDefaults}
	tc.K = 2
	type run struct {
		moments  stat4p4.MomentsSnapshot
		counters []uint64
		kinds    map[string]int
	}
	var runs []run
	for _, shards := range []int{1, 2} {
		rt, alerts, err := replay(trace, tc, shards, nil)
		if rt != nil {
			defer rt.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := stat4p4.Read(rt, stat4p4.Moments, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := stat4p4.Read(rt, stat4p4.Counters, 0)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, d := range alerts {
			a, err := stat4p4.DecodeDigest(d)
			if err != nil {
				t.Fatal(err)
			}
			kinds[fmt.Sprintf("%s slot %d", a.Kind, a.Slot)]++
		}
		runs = append(runs, run{m, c, kinds})
	}
	one, two := runs[0], runs[1]
	if one.moments.N == 0 {
		t.Fatalf("test vacuous: one-shard moments %+v", one.moments)
	}
	if m, n := one.moments, two.moments; m.N != n.N || m.Xsum != n.Xsum || m.Xsumsq != n.Xsumsq || m.Var != n.Var || m.SD != n.SD {
		t.Fatalf("one shard %+v, two shards merged %+v", m, n)
	}
	if !reflect.DeepEqual(one.counters, two.counters) {
		t.Fatalf("counters differ:\none shard  %v\ntwo shards %v", one.counters, two.counters)
	}
	if len(one.kinds) == 0 || len(one.kinds) != len(two.kinds) {
		t.Fatalf("alerts by kind: one shard %v, two shards %v", one.kinds, two.kinds)
	}
	for k := range one.kinds {
		if two.kinds[k] == 0 {
			t.Fatalf("alerts by kind: one shard %v, two shards %v", one.kinds, two.kinds)
		}
	}
}
