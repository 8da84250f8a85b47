package main

import (
	"encoding/json"
	"flag"
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
// the digest-latency quantiles computed by the Stat4 percentile markers — and,
// on a -track flow replay, the flow-table row's metrics.
func TestMetricsSmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.5); err != nil {
		t.Fatal(err)
	}
	expose := func(tc trackConfig, want ...string) *replayMetrics {
		rm := newReplayMetrics(1)
		rt, _, err := replay(trace, tc, 1, rm)
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
		for _, w := range append(want, "stat4_replay_pkts_in") {
			if !strings.Contains(out, w) {
				t.Fatalf("exposition missing %q:\n%s", w, out)
			}
		}
		return rm
	}
	expose(trackConfig{Track: "flow", TrackParams: stat4p4.TrackDefaults}, "stat4_replay_flow_occupied 2\n")

	rm := expose(trackConfig{Track: "window", TrackParams: stat4p4.TrackParams{IntervalShift: 23, Window: 20, K: 2}},
		"stat4_replay_packet_cost_ns{quantile=\"0.5\"}",
		"stat4_replay_digest_wait_ns{quantile=\"0.5\"}",
		"stat4_replay_digest_wait_ns{quantile=\"0.99\"}")
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

// TestReplayWindowShardsAgree replays one recorded capture on the window
// track at one shard and at two and requires the same merged moments, the
// marker included: a window keeps no median marker, so its merge must not
// derive one.
func TestReplayWindowShardsAgree(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.5); err != nil {
		t.Fatal(err)
	}
	var moments []stat4p4.MomentsSnapshot
	for _, shards := range []int{1, 2} {
		rt, _, err := replay(trace, trackConfig{Track: "window", TrackParams: stat4p4.TrackDefaults}, shards, nil)
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
		moments = append(moments, m)
	}
	if moments[0].N == 0 {
		t.Fatalf("test vacuous: one-shard moments %+v", moments[0])
	}
	if moments[0] != moments[1] {
		t.Fatalf("one shard %+v, two shards merged %+v", moments[0], moments[1])
	}
}

// TestDigestsDroppedExported: with a one-digest mailbox and a binding that
// alerts on every observation, a 256-frame batch loses digests in the merged
// mailbox. The exported digests_dropped is exactly the switch's count of
// them, and not zero.
func TestDigestsDroppedExported(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.1); err != nil {
		t.Fatal(err)
	}
	// Entropy over the capture's /24 destinations, checked on every
	// observation against a 64-bit threshold no mix reaches.
	app, err := stat4p4.LoadAppConfig(strings.NewReader(`{
		"options": {"Slots": 1, "Size": 256, "Stages": 1, "Entropy": true, "DigestBuf": 1},
		"bindings": [{"kind": "entropy-dst", "match": {"ipv4": true}, "shift": 8, "base": 655360,
			"size": 256, "h0": 4194304, "check_every": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rm := newReplayMetrics(1)
	rt, _, err := replay(trace, trackConfig{Track: "config", App: app}, 1, rm)
	if rt != nil {
		defer rt.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rm.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	drops := rt.Sharded().Stats().DigestDrops
	if want := fmt.Sprintf("stat4_replay_digests_dropped %d\n", drops); drops == 0 || !strings.Contains(b.String(), want) {
		t.Fatalf("switch dropped %d digests; exposition lacks %q:\n%s", drops, want, b.String())
	}
}

// TestTrackFlagsInstallTheSameEntries pins what -track installs under the
// default flags to literal entries, on every shard at one shard and at two:
// stat4d's test of the same name, for this command's flag defaults (-k 2).
// The hh mask is -sample-shift's 2^6 − 1; the flow track's admission coin
// stays 0.
func TestTrackFlagsInstallTheSameEntries(t *testing.T) {
	const base = 10 << 16 // 10.0.0.0 >> 8
	golden := map[string]struct {
		action string
		args   []uint64
	}{
		"window":  {"bind_window", []uint64{0, 0, 23, 100, 2}},
		"dst24":   {"bind_freq_dst", []uint64{0, 0, 8, base, 256, 1, 1, 2}},
		"proto":   {"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 2}},
		"len":     {"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 2}},
		"entropy": {"bind_ent_dst", []uint64{0, 0, 8, base, 256, 0, 1023}},
		"hh":      {"bind_hh_src", []uint64{0, 0, 0, 63}},
		"flow":    {"bind_flow_src", []uint64{0, 0, 0, 23, 4, 0, 2}},
	}
	if got := stat4p4.Tracks(); len(got) != len(golden) {
		t.Fatalf("tracks %v, golden table has %d", got, len(golden))
	}
	for _, track := range stat4p4.Tracks() {
		want := golden[track]
		fs := flag.NewFlagSet("stat4-replay", flag.ContinueOnError)
		tc := trackFlags(fs)
		if err := fs.Parse([]string{"-track", track}); err != nil {
			t.Fatal(err)
		}
		opts, err := tc.options()
		if err != nil {
			t.Fatalf("%s: %v", track, err)
		}
		for _, shards := range []int{1, 2} {
			rt, err := stat4p4.NewShardedRuntime(stat4p4.Build(opts), shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.install(rt); err != nil {
				t.Fatalf("%s: %v", track, err)
			}
			for s := 0; s < shards; s++ {
				es := rt.Sharded().Shard(s).Snapshot().Entries["bind0"]
				if len(es) != 1 {
					t.Fatalf("%s shard %d of %d: %d entries", track, s, shards, len(es))
				}
				if es[0].Action != want.action || !reflect.DeepEqual(es[0].Args, want.args) {
					t.Errorf("%s shard %d of %d: installed %s%v, want %s%v", track, s, shards, es[0].Action, es[0].Args, want.action, want.args)
				}
			}
			rt.Close()
		}
	}
}

// TestReportIsTheServedBody: for every track at one shard and at two, each
// answer line report prints is the JSON stat4d serves for the line's view
// row and slot 0 — the merged body, or for a kind with no merged form each
// shard's — so the two cannot drift.
func TestReportIsTheServedBody(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.pcap")
	if err := recordTrace(trace, 0.2); err != nil {
		t.Fatal(err)
	}
	views := map[string]stat4p4.AnyView{}
	for _, v := range stat4p4.Views() {
		views[v.Name()] = v
	}
	for _, track := range stat4p4.Tracks() {
		fs := flag.NewFlagSet("stat4-replay", flag.ContinueOnError)
		tc := trackFlags(fs)
		if err := fs.Parse([]string{"-track", track}); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			rt, _, err := replay(trace, *tc, shards, nil)
			if rt != nil {
				defer rt.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := report(&b, rt, track); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
			want := 1
			if _, merged := rt.SlotView(0); !merged {
				want = shards
			}
			if len(lines) != want {
				t.Fatalf("%s at %d shards: %d answer lines:\n%s", track, shards, len(lines), b.String())
			}
			for i, line := range lines {
				label, answer, ok := strings.Cut(line, ": ")
				at := strings.LastIndex(label, " /")
				if !ok || at < 0 || views[label[at+2:]] == nil {
					t.Fatalf("%s at %d shards: no view row in %q", track, shards, line)
				}
				v := views[label[at+2:]]
				body, err := v.Body(rt, 0, reportEntries)
				if len(lines) > 1 {
					body, err = v.ShardBody(rt, i, 0, reportEntries)
				}
				if err != nil {
					t.Fatal(err)
				}
				served, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				var got, want any
				if err := json.Unmarshal([]byte(answer), &got); err != nil {
					t.Fatalf("%s at %d shards: %q: %v", track, shards, line, err)
				}
				json.Unmarshal(served, &want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s at %d shards: printed %s, served %s", track, shards, answer, served)
				}
			}
		}
	}
}
