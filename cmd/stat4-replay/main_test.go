package main

import (
	"path/filepath"
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

	rm := newReplayMetrics()
	if err := replay(trace, trackConfig{Track: "window", TrackParams: stat4p4.TrackParams{IntervalShift: 23, Window: 20, K: 2}}, rm); err != nil {
		t.Fatal(err)
	}

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
		"stat4_replay_digest_latency_ns{quantile=\"0.5\"}",
		"stat4_replay_digest_latency_ns{quantile=\"0.99\"}",
		"stat4_replay_pkts_in",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if rm.sw.Cost.Count() == 0 {
		t.Fatal("no packet costs recorded")
	}
	// The recorded capture contains a spike, so the window app emits
	// digests and the drain loop pairs them with their emit stamps.
	if rm.sw.Delivered() == 0 || rm.sw.DigestWait.Count() == 0 {
		t.Fatalf("no digest latencies recorded: delivered=%d waits=%d",
			rm.sw.Delivered(), rm.sw.DigestWait.Count())
	}
}
