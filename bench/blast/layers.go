package main

import (
	"path/filepath"
	"runtime"
	"time"

	"stat4/internal/flowtable"
	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// runLayers is --trace 1: the per-layer metrics, from a sampled repeat of the
// timed run and a staged replay of the workload's own frames.
func runLayers(c *config) (result, error) {
	s, err := c.start(1)
	if err != nil {
		return result{}, err
	}
	got := make(map[string]float64, len(perLayer))

	// Set-up cost by part, where setup_s reports the whole.
	t0 := time.Now()
	lib := c.w.build()
	probe, err := stat4p4.NewShardedRuntime(lib, c.w.shards)
	if err != nil {
		return result{}, err
	}
	got["stat4p4.build_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	err = c.w.bind(probe)
	got["stat4p4.bind_us"] = float64(time.Since(t0)) / 1e3
	probe.Close()
	if err != nil {
		return result{}, err
	}

	if err := s.open(); err != nil {
		return result{}, err
	}
	e, feed := s.rig.e, s.feed
	if _, err := feed.bulk(c.warmup(), time.Hour); err != nil {
		return result{}, err
	}

	// The timed run twice: once unobserved, once under the sampler.
	phase := c.span(0.3)
	plain, err := feed.bulk(phase, c.tick(phase))
	if err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := e.Stats()
	smp := startSampler(e)
	sampled, err := feed.bulk(phase, c.tick(phase))
	smp.stop()
	if err != nil {
		return result{}, err
	}
	st1 := e.Stats()
	runtime.ReadMemStats(&ms1)
	kpkt := float64(st1.Frames-st0.Frames) / 1e3

	bursts, err := feed.burst(c.span(0.15))
	if err != nil {
		return result{}, err
	}

	stg := &stager{
		tr: s.tr, n: min(s.tr.n(), 1<<16), passes: 5,
		spans: &tracer{t0: time.Now()}, lap: feed.lap, got: make(map[string]*samples),
	}
	if c.quick {
		stg.passes = 2
	}
	stg.root = stg.spans.begin("staged-replay", -1, -1)
	view, parseErrs, err := stagedReplay(c, lib, stg, e, feed)
	if err != nil {
		return result{}, err
	}
	last := e.Stats()
	res, err := s.close()
	if err != nil {
		return result{}, err
	}
	mpscNs, slabNs, parkUs := ringProbes(1 << 18)
	stg.spans.end(stg.root)
	tracePath := filepath.Join(c.outDir, "trace-"+c.w.name+".json")
	if err := stg.spans.write(tracePath); err != nil {
		return result{}, err
	}
	var busiest uint64
	for _, in := range last.PerShard {
		busiest = max(busiest, in)
	}

	// The per-packet budget, in CPU ns: each row is a measured layer minus
	// the layer beneath it, and what the rows do not explain is printed. The
	// rows are median passes, so the whole they are held against is the
	// untraced run's median tick, not the best-twentieth cpu_ns_per_pkt. The
	// single-threaded layers are budgeted by the caller's clock, the ones
	// that fan out by process CPU.
	sg := stg.got
	match := stg.wall("p4.process_packet")
	parseShare := over(sg["p4.process_frame"].wall, sg["p4.process_packet"].wall)
	observer := over(sg["p4.process_frame+observer"].wall, sg["p4.process_frame"].wall)
	handoff := over(sg["p4.sharded_batch"].cpu, sg["p4.serial_batch"].cpu)
	slabRing := over(sg["ingest.producer"].cpu, sg["p4.sharded_batch"].cpu) - observer
	decode := over(sg["ingest.serveconn"].cpu, sg["ingest.producer"].cpu)
	stagedSum := decode + slabRing + handoff + parseShare + match + observer
	total, wire := median(plain.cpuNs), plain.writeNsPerPkt()

	got["packet.parse_ns"] = stg.wall("packet.parse")
	got["packet.serialize_ns"] = stg.wall("packet.serialize")
	got["packet.parse_err_frac"] = float64(parseErrs) / float64(stg.n*stg.passes)
	got["ring.append_ns"] = stg.wall("ring.append")
	got["ring.iter_ns"] = stg.wall("ring.iter")
	got["ring.mpsc_pushpop_ns"] = mpscNs
	got["ring.slab_acqrel_ns"] = slabNs
	got["ring.park_wake_us"] = parkUs
	got["p4.process_packet_ns"] = match
	got["p4.process_frame_ns"] = stg.wall("p4.process_frame")
	got["p4.observer_ns"] = observer
	got["p4.flowkey_ns"] = stg.wall("p4.flowkey")
	got["p4.sharded_batch_ns"] = stg.cpu("p4.sharded_batch")
	got["p4.handoff_overhead_ns"] = handoff
	got["p4.shard_speedup"] = stg.wall("p4.serial_batch") / stg.wall("p4.sharded_batch")
	got["p4.handoff_small_us"] = stg.wall("p4.sharded_batch_small") * burstFrames / 1e3
	got["p4.digests_per_kpkt"] = float64(st1.AlertsTotal-st0.AlertsTotal) / kpkt
	got["p4.digest_drops"] = float64(last.Switch.DigestDrops)
	got["p4.recirc_per_kpkt"] = float64(st1.Switch.Recirculated-st0.Switch.Recirculated) / kpkt
	got["p4.shard_skew"] = float64(busiest) * float64(len(last.PerShard)) / float64(last.Frames)
	got["p4.snapshot_ms"] = view.snapshotMs
	got["stat4p4.merged_snapshot_ms"] = view.mergedSnapshotMs
	got["stat4p4.merged_flows_ms"] = view.mergedFlowsMs
	got["flowtable.touch_ns"] = stg.wall("flowtable.touch")
	got["flowtable.emitted_over_native"] = match / stg.wall("flowtable.touch")
	got["ingest.producer_ns"] = slabRing
	got["ingest.serveconn_ns"] = decode
	got["ingest.socket_ns"] = 1e9/plain.pps() - stg.wall("ingest.serveconn")
	got["ingest.frames_per_batch"] = float64(st1.Frames-st0.Frames) / float64(st1.Batches-st0.Batches)
	got["ingest.ring_depth_p50"] = quantile(smp.depth, 0.5)
	got["ingest.ring_depth_max"] = quantile(smp.depth, 1)
	got["ingest.blocks_in_use_max"] = float64(smp.blocksMax)
	got["ingest.shed_frac"] = float64(last.ShedFrames) / float64(res.Attempted)
	got["ingest.do_us"] = median(smp.doUs)
	got["telemetry.writeprom_ms"] = median(smp.promMs)
	got["telemetry.hist_observe_ns"] = stg.wall("telemetry.hist_observe")
	got["traffic.write_ns"] = wire
	got["traffic.window_full_frac"] = plain.windowFullFrac()
	got["proc.allocs_per_kpkt"] = float64(ms1.Mallocs-ms0.Mallocs) / kpkt
	got["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	got["proc.cores_busy"] = float64(plain.use.cpu) / float64(plain.wall)
	got["proc.ctx_switch_per_kpkt"] = float64(plain.use.ctxsw) / (float64(plain.frames) / 1e3)
	got["proc.burst_p50_us"] = quantile(bursts, 0.50)
	got["proc.burst_p90_us"] = quantile(bursts, 0.90)
	got["proc.burst_p99_us"] = quantile(bursts, 0.99)
	got["proc.burst_p999_us"] = quantile(bursts, 0.999)
	got["budget.staged_sum_ns"] = stagedSum
	got["budget.unattributed_ns"] = total - stagedSum - wire
	got["budget.parse_gap_pct"] = 100 * (parseShare - stg.wall("packet.parse")) / stg.wall("packet.parse")
	got["trace.overhead_pct"] = 100 * (plain.pps() - sampled.pps()) / plain.pps()
	res.fill(perLayer, got)

	c.logf("untraced run: %.0f frames/s and %.1f cpu ns/pkt (best twentieth of %d ticks; median tick %.1f ns) over %.1fs; sampled run: %.0f frames/s (%d Stats samples)",
		plain.pps(), plain.cpuNsPerPkt(), len(plain.cpuNs), total, plain.wall.Seconds(), sampled.pps(), len(smp.depth))
	c.logf("staged replay: %d frames x %d passes per layer, median pass; %d bursts; %d spans in %s",
		stg.n, stg.passes, len(bursts), len(stg.spans.spans), tracePath)
	for _, d := range perLayer {
		c.logf("%-32s %14.3f %s", d.Name, got[d.Name], d.Unit)
	}
	c.logf("")
	c.logf("per-packet budget, %s (cpu ns per frame; each row is a layer minus the layer beneath it)", c.w.name)
	c.logf("| stage | measured as | ns/pkt | share |")
	c.logf("|---|---|---:|---:|")
	for _, row := range []struct {
		stage, how string
		ns         float64
	}{
		{"wire", "generator conn.Write (traffic.write_ns)", wire},
		{"decode", "ServeConn over a reader - Producer (ingest.serveconn_ns)", decode},
		{"slab/ring", "Producer into the engine - sharded batch - observer (ingest.producer_ns)", slabRing},
		{"partition+handoff", "ShardedSwitch.ProcessBatch - Switch.ProcessBatch (p4.handoff_overhead_ns)", handoff},
		{"parse", "ProcessFrame - ProcessPacket", parseShare},
		{"match+plan+deparse", "ProcessPacket (p4.process_packet_ns)", match},
		{"observer", "ProcessFrame with SwitchMetrics - without (p4.observer_ns)", observer},
		{"unattributed", "socket read side, scheduler, GC (budget.unattributed_ns)", total - stagedSum - wire},
		{"total", "median tick of the untraced run, cpu ns per frame", total},
	} {
		c.logf("| %s | %s | %.1f | %.1f%% |", row.stage, row.how, row.ns, 100*row.ns/total)
	}
	if f := plain.windowFullFrac(); f <= 0.5 {
		c.logf("WARNING: generator blocked on the window only %.0f%% of the time: pps may be the generator's, not the program's", 100*f)
	}
	return res, nil
}

// views is what the control-plane reads cost on the staged sharded runtime.
type views struct{ snapshotMs, mergedSnapshotMs, mergedFlowsMs float64 }

// stagedReplay runs every staged layer into stg. The stateful layers each get
// a runtime bound like the workload; the two ways into the live engine use
// the rig, so this runs while it is up.
func stagedReplay(c *config, lib *stat4p4.Library, stg *stager, e *ingest.Engine, feed *feeder) (views, int, error) {
	tr, n, spans := stg.tr, stg.n, stg.spans
	serial := make([]*p4.Switch, 3)
	for i := range serial {
		rt, err := stat4p4.NewRuntime(lib)
		if err != nil {
			return views{}, 0, err
		}
		if err := c.w.bind(rt); err != nil {
			return views{}, 0, err
		}
		serial[i] = rt.Switch()
		serial[i].SetDigestSink(func(p4.Digest) {})
	}
	packets, plainFrames, observedFrames := serial[0], serial[1], serial[2]
	observedFrames.SetObserver(telemetry.NewSwitchMetrics(0))
	sr, err := c.w.datapath()
	if err != nil {
		return views{}, 0, err
	}
	defer sr.Close()
	ss := sr.Sharded()
	ss.SetDigestSink(func(p4.Digest) {})

	// From the engine's own entry points down to a bare batch call, taking
	// turns pass by pass. The two ways into the live engine are closed loops
	// under the generator's window and on the feeder's books; a pass ends
	// when the engine has accounted for every frame.
	ins := make([]p4.FrameIn, 0, n)
	stampIns := func(lap uint64) { ins = tr.frameIns(ins, 0, n, lap) }
	prod := e.NewProducer()
	err = stg.alternating(
		layer{name: "ingest.producer", feed: func(parent int, lap uint64) error {
			for lo := 0; lo < n; lo += batchFrames {
				feed.admit()
				id := spans.begin("ingest.producer", parent, lo/batchFrames)
				for i := lo; i < lo+batchFrames; i++ {
					prod.AddWait(stg.ts(i, lap), 1, tr.frame(i))
				}
				spans.end(id)
			}
			prod.FlushWait()
			return feed.drain()
		}},
		layer{name: "ingest.serveconn", feed: func(parent int, lap uint64) error {
			tr.stamp(0, n, lap)
			rd := &pacedReader{f: feed, wire: tr.wire, off: tr.off[:n+1], spans: spans, parent: parent, open: -1}
			if _, err := e.ServeConn(rd); err != nil {
				return err
			}
			return feed.drain()
		}},
		layer{name: "p4.serial_batch", pass: stampIns, body: func(lo, hi int, _ uint64) {
			plainFrames.ProcessBatch(ins[lo:hi], nil)
		}},
		layer{name: "p4.sharded_batch", pass: stampIns, body: func(lo, hi int, _ uint64) {
			ss.ProcessBatch(ins[lo:hi], nil)
		}},
		layer{name: "p4.sharded_batch_small", pass: stampIns, body: func(lo, hi int, _ uint64) {
			for j := lo; j < hi; j += burstFrames {
				ss.ProcessBatch(ins[j:j+burstFrames], nil)
			}
		}},
	)
	prod.Close()
	if err != nil {
		return views{}, 0, err
	}

	// The single-threaded layers. Those fed decoded packets read the batch
	// the parse layer just decoded into scratch, which stays cache-warm as
	// the switch's own parse scratch does.
	frames := func(sw *p4.Switch) func(lo, hi int, lap uint64) {
		return func(lo, hi int, lap uint64) {
			for i := lo; i < hi; i++ {
				sw.ProcessFrame(stg.ts(i, lap), 1, tr.frame(i))
			}
		}
	}
	ftCfg := flowtable.Config{Buckets: c.w.flowBuckets, EpochShift: 23, TTL: 4}
	if ftCfg.Buckets == 0 {
		ftCfg.Buckets = 1024 // the emitted flow plane's default size
	}
	ft := flowtable.New(ftCfg)
	hist := telemetry.NewHist()
	scratch := make([]packet.Packet, batchFrames)
	block := make([]byte, 0, 32<<10) // the slab's default block
	var buf []byte
	parseErrs := 0
	stg.interleaved(
		layer{name: "packet.parse", body: func(lo, hi int, _ uint64) {
			for i := lo; i < hi; i++ {
				if packet.ParseInto(&scratch[i-lo], tr.frame(i)) != nil {
					parseErrs++
				}
			}
		}},
		layer{name: "packet.serialize", body: func(lo, hi int, _ uint64) {
			for i := range scratch {
				buf = scratch[i].AppendSerialize(buf[:0])
			}
		}},
		layer{name: "p4.flowkey", body: func(lo, hi int, _ uint64) {
			for i := lo; i < hi; i++ {
				sink ^= p4.FlowKey(tr.frame(i))
			}
		}},
		layer{name: "ring.append", body: func(lo, hi int, lap uint64) {
			block = block[:0]
			for i := lo; i < hi; i++ {
				block, _ = ring.AppendFrame(block, stg.ts(i, lap), 1, tr.frame(i))
			}
		}},
		layer{name: "ring.iter", body: func(lo, hi int, _ uint64) {
			ins = ins[:0]
			it := ring.NewFrameIter(block, batchFrames)
			for {
				ts, port, frame, ok := it.Next()
				if !ok {
					break
				}
				ins = append(ins, p4.FrameIn{TsNs: ts, Port: port, Data: frame})
			}
		}},
		layer{name: "p4.process_packet", body: func(lo, hi int, lap uint64) {
			for i := lo; i < hi; i++ {
				packets.ProcessPacket(stg.ts(i, lap), 1, &scratch[i-lo])
			}
		}},
		layer{name: "p4.process_frame", body: frames(plainFrames)},
		layer{name: "p4.process_frame+observer", body: frames(observedFrames)},
		layer{name: "flowtable.touch", body: func(lo, hi int, lap uint64) {
			for i := lo; i < hi; i++ {
				ft.Touch(uint64(scratch[i-lo].IPv4.Src), stg.ts(i, lap))
			}
		}},
		layer{name: "telemetry.hist_observe", body: func(lo, hi int, _ uint64) {
			for i := lo; i < hi; i++ {
				hist.Observe(uint64(600 + i&1023))
			}
		}},
	)

	timeMs := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0)) / 1e6
	}
	var v views
	v.snapshotMs = timeMs(func() { ss.MergedSnapshot() })
	v.mergedSnapshotMs = timeMs(func() { sr.MergedSnapshot() })
	if lib.Opts.FlowTable {
		v.mergedFlowsMs = timeMs(func() { _, err = sr.MergedFlows(0) })
	}
	return v, parseErrs, err
}
