// Package stat4 is a from-scratch Go reproduction of "Stats 101 in P4:
// Towards In-Switch Anomaly Detection" (Gao, Handley, Vissicchio —
// HotNets '21): the Stat4 library of integer-only online statistics for
// programmable data planes, together with every substrate its evaluation
// needs — a P4-style switch simulator, a packet model, traffic generators, a
// discrete-event network, a drill-down controller and a sketch-only baseline.
//
// The datapath also scales out: p4.ShardedSwitch replicates a compiled
// program over N flow-hash shards (RSS-style, same 5-tuple → same shard) and
// the statistics merge losslessly — counter registers add, derived scalars
// are recomputed from the merged counters — so a sharded deployment's merged
// snapshot is byte-identical to a serial switch that saw the same stream.
// The property/differential suites in internal/core, internal/p4,
// internal/stat4p4 and internal/netem pin that equivalence.
//
// Layout:
//
//	internal/intstat   integer primitives (Figure 2 sqrt, MSB, shift-multiply)
//	internal/core      the Stat4 reference library (moments, percentiles, windows)
//	internal/p4        the P4-style switch simulator, sharded dispatcher and static analyzer
//	internal/stat4p4   the Stat4 → P4 emitter, runtime API and echo app
//	internal/packet    Ethernet/IPv4/TCP/UDP + echo header
//	internal/traffic   seeded workload generators
//	internal/netem     discrete-event network simulator
//	internal/telemetry integer-only observability built on the core statistics
//	internal/controller the case-study drill-down controller
//	internal/experiments harnesses regenerating every table and figure, and
//	                   the pull-based (Figure 1b) baseline
//	cmd/...            stat4-echo, stat4-casestudy, stat4-tables
//	examples/...       quickstart, synflood, loadbalance, trafficclass
//
// See README.md for the quickstart, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each table/figure under `go
// test -bench`.
package stat4
