// Package telemetry is the observability layer of the repo, built by
// dogfooding the paper's own machinery: every latency and occupancy
// distribution is tracked with the Stat4 primitives from internal/core — a
// frequency array over log2 fixed-point buckets, scaled moments with the
// lazy standard deviation of Section 3, and the one-step-per-packet
// percentile markers of Figure 3 for P50/P99. The recording path is
// integer-only (no division, no floating point, no unbounded loops) and is
// annotated //stat4:datapath, so cmd/stat4-lint enforces switch feasibility
// on the metrics core exactly as it does on the data plane being measured.
//
// The layer exists because the paper's argument (Figure 1c) makes detection
// quality a function of what the switch→controller channel delivers and
// when; the repo needs to observe its own digest pipeline — per-packet
// processing cost, digest emit and delivery, control-channel latency,
// event-queue occupancy, drill-down phase transitions — without perturbing
// it. Recording is allocation-free after construction (the zero-alloc tests
// pin 0 allocs/packet with recording enabled) and all recorded and exposed
// values are integers.
//
// Recorders are single-writer: they must be updated from the data-plane (or
// simulation) goroutine only, and snapshots must be taken from that same
// goroutine or after processing has stopped — the same contract as the
// switch's register arrays.
//
// The pieces:
//
//	Hist          log2-bucketed distribution (count/sum/min/max + markers)
//	Counter       a plain monotonic event counter
//	Timeline      a bounded record of (timestamp, code) transitions
//	SwitchMetrics the p4.Observer implementation (cost, digest lifecycle)
//	NodeMetrics   netem.SwitchNode channel observables
//	Pipeline      one bundle of all of the above for a switch→controller path
//	Registry      named recorders → Prometheus-style text or a JSON snapshot
package telemetry
