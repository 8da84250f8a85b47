# Stat4 build and correctness gate. CI (.github/workflows/ci.yml) runs the
# same targets; `make check` is the full local equivalent.

GO ?= go

.PHONY: all build test loc fmt race vet lint golden bench blast blast-compare blast-pairs layout detect detect-smoke fuzz-smoke metrics-smoke stat4d-smoke check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints non-test Go lines per package and in total, bench/ excluded —
# the arithmetic ROADMAP.md's code-diet acceptance is stated in.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | \
		xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = (n > 1) ? substr($$2, 1, length($$2) - length(p[n]) - 1) : "."; l[d] += $$1; t += $$1 } \
		END { for (d in l) printf "%6d %s\n", l[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# race uses -short: instrumentation slows the minutes-long virtual-time
# experiment sweeps past the test timeout, and they are single-threaded
# anyway — the concurrency surface (controller, registers, tables, netem)
# is fully exercised by the short suite.
# The second line repeats the lock-and-fork-join contract tests: control
# plane against a data plane that runs shard 0 on ProcessBatch's caller and
# shards 1…n−1 on the caller or their workers (rows alternating small and
# forked batches), inline against forked results, and the worker join. A
# race there is a matter of interleaving, so one pass proves little. The
# third repeats the daemon smoke, whose race-slowed consumption is where
# unbuffered record writes used to exhaust the slab and shed frames.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 -run 'Concurren|ShardedClose|InlineMatchesFork' ./internal/p4
	$(GO) test -race -count=5 -run 'TestDaemonSmoke$$' ./cmd/stat4d

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when gofmt would rewrite any Go file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# lint runs the switch-feasibility gate both ways: the standalone whole-module
# driver (authoritative: the datapath closure crosses package boundaries) and
# through go vet's -vettool protocol (what editor integrations use). Both
# modes also run the program-level gates — stagebudget (every registered
# emitted program must fit the pisa-3pass target model) and mergelaw (declared
# merge kinds, additive-only MergeSum writes) — standalone always, vettool on
# the stat4p4 package's unit. The standalone run also builds the roots (every
# main package and the root test binary, inlining off, into a temporary
# directory) for the reachable pass: a function no binary links must be
# deleted, moved under _test.go, or exempted with a reason.
lint:
	$(GO) run ./cmd/stat4-lint ./...
	$(GO) build -o $(CURDIR)/bin/stat4-lint ./cmd/stat4-lint
	$(GO) vet -vettool=$(CURDIR)/bin/stat4-lint ./...

# golden pins every registered configuration's emitted program (IR listing,
# P4-16 text, pisa-3pass placement, bindable-action order); -count=2 because
# map-ordered emission can match by luck once.
golden:
	$(GO) test -run 'TestEmittedGolden|TestBuildDeterministic' -count=2 ./internal/stat4p4

# bench regenerates BENCH_$(BENCHN).json: the E1–E6 experiment benchmarks, the
# per-packet switch benches, the simulation-engine benches (scheduling,
# dispatch, batched stream injection) and the datapath set-up rows, with
# allocation counts (-benchmem). Set BASELINE to a saved `go test -bench`
# output to record before/after deltas in the JSON; raise BENCHCOUNT for
# lower-variance numbers.
BENCHN ?= 1
BENCHCOUNT ?= 1
BENCHFILTER ?= Benchmark(Table2|Table3|EchoValidation|CaseStudy|ResourceAnalysis|ArchComparison|Switch|Sharded|Sim|InjectStream|RingPush|IngestHandoff|Stat4dE2E|Log2Fixed|FlowTable|Setup)
bench:
	$(GO) test -run=^$$ -bench '$(BENCHFILTER)' -benchmem -count=$(BENCHCOUNT) . | tee bench_latest.txt
	$(GO) run ./cmd/stat4-bench $(if $(BASELINE),-baseline $(BASELINE)) -o BENCH_$(BENCHN).json bench_latest.txt

# blast runs the repository benchmark (bench/README.md): every workload of
# BENCHMARK.json through stat4d's datapath over a unix socket, end-to-end
# metrics plus the per-layer budget, written to bench/out/. blast-compare
# prints run B against run A and exits non-zero when an end-to-end metric is
# worse by more than its bound: make blast-compare A=a/blast.json B=b/blast.json
blast:
	$(GO) run ./bench/blast

blast-compare:
	$(GO) run ./bench/blast -compare $(A) $(B)

# blast-pairs is the paired protocol a performance claim is measured with on
# a host whose speed drifts (bench/README.md "Why best-of"): bench/blast built
# once from a temporary checkout of REV (git archive — nothing is left in
# .git) and once from the tree, then N pairs of runs on workload W, same seed
# within a pair, alternating which side goes first. Prints every run, then
# per end-to-end metric each side's median and quartiles and how many pairs
# the tree won. A run with failed operations fails the target.
#   make blast-pairs REV=HEAD~1 W=bulk-dst24-1s N=10
REV ?= HEAD
W ?= bulk-dst24-1s
N ?= 10
BLASTSECONDS ?= 26
BLASTMETRICS = pps cpu_ns_per_pkt burst_p10_us peak_rss_mb setup_s
blast-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(REV) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent" ./bench/blast); \
	$(GO) build -o "$$tmp/change" ./bench/blast; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			"$$tmp/$$side" -workload $(W) -seed $$i -seconds $(BLASTSECONDS) -trace 0 -out "$$tmp/out" | tail -n 1 > "$$tmp/last"; \
			echo "pair $$i $$side $$(cat "$$tmp/last")"; \
			grep -q '"correct":true.*"failed":0,' "$$tmp/last" || { echo "blast-pairs: $$side failed operations in pair $$i"; exit 1; }; \
			for m in $(BLASTMETRICS); do \
				sed -n "s/.*\"$$m\":{\"value\":\([^,}]*\).*/\1/p" "$$tmp/last" >> "$$tmp/$$side.$$m"; \
			done; \
		done; \
	done; \
	echo; echo "$(W): parent $(REV) against the tree, $(N) pairs of $(BLASTSECONDS) s"; \
	for m in $(BLASTMETRICS); do \
		for side in parent change; do \
			sort -g "$$tmp/$$side.$$m" | awk -v m=$$m -v side=$$side '{ v[NR] = $$1 } END { \
				printf "%-15s %-7s median %-12.6g quartiles %.6g .. %.6g\n", m, side, \
				(v[int((NR+1)/2)] + v[int((NR+2)/2)]) / 2, v[int((NR+3)/4)], v[int((3*NR+3)/4)] }'; \
		done; \
		paste "$$tmp/parent.$$m" "$$tmp/change.$$m" | awk -v m=$$m '{ \
			if (m == "pps" ? $$2 > $$1 : $$2 < $$1) won++; else if ($$2 == $$1) tied++ } END { \
			printf "%-15s the tree won %d of %d pairs (%d tied)\n", m, won, NR, tied }'; \
	done

# layout prints where the benchmark binary's hot functions sit: bench/blast
# built once from a temporary checkout of REV (git archive, as blast-pairs
# does) and once from the tree, then per symbol both addresses, the shift and
# whether the address mod 64 (its offset in a cache line) still matches. It
# exits non-zero when (*Switch).run's offset moved. The reason it exists:
# code-layout shifts alone, with the moved code unchanged, have cost this
# benchmark 7 % and, when an edit ahead of package p4 moved run, 17 % of
# bulk-dst24-1s pps.
#   make layout REV=HEAD~1
LAYOUTSYMS = 'p4.(*Switch).run' 'p4.(*Switch).processPacket' 'p4.(*Switch).parseAndProcess' \
	'p4.(*table).lookup' 'p4.(*ShardedSwitch).ProcessBatch' 'p4.FlowKey' \
	'ingest.(*Engine).consume' 'ingest.(*Engine).ServeConn' 'ingest.(*Producer).add' \
	'ring.(*FrameIter).Next'
layout:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(REV) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent" ./bench/blast); \
	$(GO) build -o "$$tmp/change" ./bench/blast; \
	$(GO) tool nm "$$tmp/parent" > "$$tmp/parent.nm"; $(GO) tool nm "$$tmp/change" > "$$tmp/change.nm"; \
	printf "%-32s %10s %10s %7s  %s\n" symbol "$(REV)" tree shift "mod 64"; moved=0; \
	for s in $(LAYOUTSYMS); do \
		p=$$(awk -v s="stat4/internal/$$s" '$$3 == s { print $$1 }' "$$tmp/parent.nm"); \
		c=$$(awk -v s="stat4/internal/$$s" '$$3 == s { print $$1 }' "$$tmp/change.nm"); \
		if [ -z "$$p" ] || [ -z "$$c" ]; then echo "layout: $$s missing from a binary"; exit 1; fi; \
		if [ $$((0x$$p % 64)) -eq $$((0x$$c % 64)) ]; then m=same; else m=MOVED; fi; \
		printf "%-32s %10s %10s %+7d  %s\n" "$$s" "$$p" "$$c" $$((0x$$c - 0x$$p)) $$m; \
		if [ "$$s" = 'p4.(*Switch).run' ] && [ $$m = MOVED ]; then moved=1; fi; \
	done; \
	if [ $$moved -ne 0 ]; then echo "layout: (*Switch).run changed its offset in a cache line"; exit 1; fi

# detect regenerates DETECT_$(DETECTN).json: the detection-quality matrix —
# every scenario of the traffic registry replayed against every detector
# config (healthy and pathological) at 1 and 4 shards, scored for
# time-to-detect, precision/recall/F1, drill-down accuracy and benign-twin
# false alarms. Deterministic: fixed seeds and the virtual clock make the
# scores byte-stable. Set DETECT_BASELINE to a previous artifact to record
# quality deltas and gate on regressions.
DETECTN ?= 1
detect:
	$(GO) run ./cmd/stat4-detect $(if $(DETECT_BASELINE),-baseline $(DETECT_BASELINE) -gate) -o DETECT_$(DETECTN).json -q

# detect-smoke is the CI-speed slice of the same matrix: quarter-length
# traces, the dominance audit and the benign false-alarm bounds enforced by
# the test, plus the unit surface of the scorer.
detect-smoke:
	$(GO) test -run 'TestMatrixContract|TestRunDeterministic' -v ./internal/detect/

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# regressions in the parser round-trip, sqrt invariants, the compiled-plan
# vs tree-walker equivalence (on the echo program and on the daemon's
# entropy + heavy-hitter one, with control-plane churn between frames), the
# timer wheel vs the reference heap engine, slab ownership against a model,
# the binding-lowering boundary and strict prefix parsing without stalling CI.
# FuzzShardEquivalence gets 30s rather than FUZZTIME: each input replays a
# whole packet sequence through a sharded and a serial switch and diffs the
# merged snapshot, so single executions are slower than the other targets'.
# CI's fuzz-smoke job runs this target, so the list is kept here only.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzSqrtApprox -fuzztime=$(FUZZTIME) ./internal/intstat/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run=^$$ -fuzz='^FuzzDifferential$$' -fuzztime=$(FUZZTIME) ./internal/p4/
	$(GO) test -run=^$$ -fuzz='^FuzzDifferentialEntropyHH$$' -fuzztime=$(FUZZTIME) ./internal/p4/
	$(GO) test -run=^$$ -fuzz=FuzzShardEquivalence -fuzztime=30s ./internal/p4/
	$(GO) test -run=^$$ -fuzz=FuzzSchedulerEquivalence -fuzztime=$(FUZZTIME) ./internal/netem/
	$(GO) test -run=^$$ -fuzz=FuzzRingFIFO -fuzztime=$(FUZZTIME) ./internal/ring/
	$(GO) test -run=^$$ -fuzz=FuzzSlab -fuzztime=$(FUZZTIME) ./internal/ring/
	$(GO) test -run=^$$ -fuzz=FuzzFlowDeterminism -fuzztime=$(FUZZTIME) ./internal/flowtable/
	$(GO) test -run=^$$ -fuzz=FuzzServeConn -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run=^$$ -fuzz=FuzzBinding -fuzztime=$(FUZZTIME) ./internal/stat4p4/
	$(GO) test -run=^$$ -fuzz=FuzzParsePrefix -fuzztime=$(FUZZTIME) ./internal/stat4p4/

# metrics-smoke replays a small synthetic capture with telemetry attached and
# asserts the Prometheus-style exposition parses (integer-only, quantiles from
# the Stat4 percentile markers) — the -metrics flag's end-to-end gate.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -v ./cmd/stat4-replay

# stat4d-smoke boots the daemon in-process with pcap + TCP + unix-socket
# sources, streams frames over every listener, exercises the whole HTTP
# control plane (metrics scrape, snapshot, drill-down, runtime rebinding) and
# drains — the live-ingest end-to-end gate — then runs every view-table path
# (/moments, /counters, /entropy, /heavyhitters, /flows) and the flow_* scrape
# gauges by name.
stat4d-smoke:
	$(GO) test -run 'TestDaemonSmoke|TestPushClientRoundTrip|Endpoint|FlowMetricsExposition' -v ./cmd/stat4d

check: build fmt vet lint golden race detect-smoke fuzz-smoke metrics-smoke stat4d-smoke

clean:
	rm -rf bin
