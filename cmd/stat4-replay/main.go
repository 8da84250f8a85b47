// Command stat4-replay drives a Stat4 switch from a pcap capture: frames are
// processed at their captured timestamps, the requested statistics are bound
// before the replay, and the tracked measures plus any anomaly alerts are
// printed at the end. With -record it instead synthesises a case-study-style
// workload and writes it to a pcap file, so experiments are exchangeable as
// ordinary captures.
//
//	stat4-replay -record trace.pcap -seconds 2
//	stat4-replay trace.pcap -track window -interval-shift 23 -window 100
//	stat4-replay trace.pcap -track dst24 -k 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stat4-replay: ")
	record := flag.String("record", "", "write a synthetic case-study capture to this file and exit")
	seconds := flag.Float64("seconds", 2, "capture length for -record")
	track := flag.String("track", "window", "statistic to bind: window | dst24 | proto | len | entropy | hh")
	shift := flag.Uint("interval-shift", 23, "window interval exponent (2^shift ns)")
	window := flag.Int("window", 100, "window length in intervals")
	k := flag.Uint64("k", 2, "sigma multiplier for the anomaly check (0 disables for freq modes)")
	basePrefix := flag.String("base-prefix", "10.0.0.0", "dst24/entropy modes: /16 whose /24 subnets are indexed")
	h0 := flag.Float64("h0", 0, "entropy mode: alert when the mix drops below this many bits (0 disables)")
	checkEvery := flag.Uint64("check-every", 1024, "entropy mode: check cadence in observations (power of two)")
	sampleShift := flag.Uint("sample-shift", 6, "hh mode: recirculation probability 2^-shift")
	configPath := flag.String("config", "", "JSON app config (overrides -track and friends)")
	shards := flag.Int("shards", 1, "replicate the datapath over N flow-hash shards (RSS-style dispatch)")
	ringFeed := flag.Bool("ring", false, "feed shards through the stat4d ingest ring instead of direct batches (lossless)")
	metrics := flag.Bool("metrics", false, "print the telemetry exposition after the replay")
	metricsOut := flag.String("metrics-out", "", "write the telemetry snapshot as JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address during the replay")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	if *record != "" {
		if err := recordTrace(*record, *seconds); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: stat4-replay [flags] trace.pcap  (or -record out.pcap)")
	}
	if *shards < 1 {
		log.Fatal("-shards must be at least 1")
	}
	tc := trackConfig{
		Track: *track, Shift: *shift, Window: *window, K: *k,
		H0Bits: *h0, CheckEvery: *checkEvery, SampleShift: *sampleShift,
	}
	if *shards > 1 || *ringFeed {
		if *configPath != "" {
			log.Fatal("-shards is not supported with -config (bindings come from the track flags)")
		}
		base, err := parseAddr(*basePrefix)
		if err != nil {
			log.Fatal(err)
		}
		tc.Base = uint64(base) >> 8
		if *ringFeed {
			if err := replayRing(flag.Arg(0), tc, *shards, *metrics, *metricsOut); err != nil {
				log.Fatal(err)
			}
			return
		}
		sm := newShardedMetrics(*shards, *metrics || *metricsOut != "")
		if err := replaySharded(flag.Arg(0), tc, *shards, sm); err != nil {
			log.Fatal(err)
		}
		if sm != nil {
			if err := sm.emit(*metrics, *metricsOut); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	var rm *replayMetrics
	if *metrics || *metricsOut != "" {
		rm = newReplayMetrics()
	}
	run := func() error {
		if *configPath != "" {
			return replayWithConfig(flag.Arg(0), *configPath, rm)
		}
		base, err := parseAddr(*basePrefix)
		if err != nil {
			return err
		}
		tc.Base = uint64(base) >> 8
		return replay(flag.Arg(0), tc, rm)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
	if rm != nil {
		if err := rm.emit(*metrics, *metricsOut); err != nil {
			log.Fatal(err)
		}
	}
}

// shardedMetrics is the telemetry wiring of a sharded replay: one switch
// observer per shard (single-writer: whichever goroutine runs the shard), the
// merged fleet view, and the fleet counters — the per-shard + merged split
// in one registry.
type shardedMetrics struct {
	sp  *telemetry.ShardedPipeline
	reg *telemetry.Registry
}

// newShardedMetrics returns nil when metrics are off.
func newShardedMetrics(shards int, enabled bool) *shardedMetrics {
	if !enabled {
		return nil
	}
	return &shardedMetrics{
		sp:  telemetry.NewShardedPipeline(shards),
		reg: telemetry.NewRegistry("stat4_replay"),
	}
}

// attach installs one observer per shard and exposes the fleet counters.
func (sm *shardedMetrics) attach(ss *p4.ShardedSwitch) {
	for i := 0; i < ss.NumShards(); i++ {
		ss.Shard(i).SetObserver(sm.sp.Shards[i])
	}
	sm.sp.Register(sm.reg)
	sm.reg.RegisterCounter("pkts_in", "frames handed to the pipelines", func() uint64 { return ss.Stats().PktsIn })
	sm.reg.RegisterCounter("pkts_out", "frames emitted by the pipelines", func() uint64 { return ss.Stats().PktsOut })
	sm.reg.RegisterCounter("parse_errors", "frames rejected by the parsers", func() uint64 { return ss.Stats().ParseErrors })
}

// emit refreshes the merged view and renders as requested.
func (sm *shardedMetrics) emit(prom bool, jsonPath string) error {
	sm.sp.Refresh()
	if prom {
		if err := sm.reg.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := sm.reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// replayMetrics is the telemetry wiring of one replay: the switch observer
// plus a registry exposing it next to the switch's global counters.
type replayMetrics struct {
	sw  *telemetry.SwitchMetrics
	reg *telemetry.Registry
}

// newReplayMetrics builds the bundle; the switch counters are registered
// lazily by attach once the switch exists.
func newReplayMetrics() *replayMetrics {
	rm := &replayMetrics{sw: telemetry.NewSwitchMetrics(0), reg: telemetry.NewRegistry("stat4_replay")}
	rm.reg.RegisterHist("packet_cost_ns", "per-packet processing cost (parse+execute; the replay takes no output, so no deparse), sampled 1-in-64", rm.sw.Cost)
	rm.reg.RegisterHist("digest_latency_ns", "digest emit-to-drain wall-clock latency", rm.sw.DigestWait)
	rm.reg.RegisterCounter("digests_emitted", "digests accepted by the channel", rm.sw.Emitted)
	rm.reg.RegisterCounter("digests_dropped", "digests lost to a full channel", rm.sw.Dropped)
	rm.reg.RegisterCounter("digests_delivered", "digests drained by the replay loop", rm.sw.Delivered)
	return rm
}

// attach installs the observer and exposes the switch's global counters.
func (rm *replayMetrics) attach(sw *p4.Switch) {
	sw.SetObserver(rm.sw)
	rm.reg.RegisterCounter("pkts_in", "frames handed to the pipeline", func() uint64 { return sw.Stats().PktsIn })
	rm.reg.RegisterCounter("pkts_out", "frames emitted by the pipeline", func() uint64 { return sw.Stats().PktsOut })
	rm.reg.RegisterCounter("parse_errors", "frames rejected by the parser", func() uint64 { return sw.Stats().ParseErrors })
}

// emit renders the exposition and/or JSON snapshot as requested.
func (rm *replayMetrics) emit(prom bool, jsonPath string) error {
	if prom {
		if err := rm.reg.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rm.reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func recordTrace(path string, seconds float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)

	end := uint64(seconds * 1e9)
	dests := traffic.CaseStudyDests()
	load := &traffic.LoadBalanced{Dests: dests, Rate: 20000, End: end, Seed: 1, Jitter: 0.5}
	spike := &traffic.Spike{Dest: dests[3], Rate: 60000, Start: end / 2, End: end, Seed: 2, Jitter: 0.5}
	st := traffic.Merge(load, spike)
	n := 0
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if err := w.WriteFrame(p.TsNs, p.Frame.Serialize()); err != nil {
			return err
		}
		n++
	}
	fmt.Printf("wrote %d frames to %s (spike toward %v from %.2fs)\n",
		n, path, dests[3], seconds/2)
	return nil
}

// parseAddr parses a dotted-quad IPv4 address.
func parseAddr(s string) (packet.IP4, error) {
	var a, b, c, d byte
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("bad address %q: %v", s, err)
	}
	return packet.ParseIP4(a, b, c, d), nil
}

// replayWithConfig instantiates a declarative app and replays through it.
func replayWithConfig(tracePath, configPath string, rm *replayMetrics) error {
	cf, err := os.Open(configPath)
	if err != nil {
		return err
	}
	cfg, err := stat4p4.LoadAppConfig(cf)
	cf.Close()
	if err != nil {
		return err
	}
	rt, ids, err := cfg.Apply()
	if err != nil {
		return err
	}
	fmt.Printf("applied %s: %d bindings, %d routes\n", configPath, len(ids), len(cfg.Routes))
	return replayThrough(tracePath, rt, trackConfig{Track: "config"}, rm)
}

// trackConfig bundles the -track family of flags so every replay flavor
// (serial, sharded, ring-fed) binds and reports the same statistic.
type trackConfig struct {
	Track       string
	Shift       uint   // window interval exponent
	Window      int    // window length in intervals
	K           uint64 // sigma multiplier
	Base        uint64 // dst24/entropy: /16 base, pre-shifted
	H0Bits      float64
	CheckEvery  uint64
	SampleShift uint
}

// options sizes the program for the track: entropy and heavy hitters carry
// extra registers and recirculation plumbing, so they are compiled in only
// when asked for.
func (tc trackConfig) options() stat4p4.Options {
	return stat4p4.Options{
		Slots: 1, Size: 256, Stages: 1,
		Entropy:     tc.Track == "entropy",
		HeavyHitter: tc.Track == "hh",
	}
}

// entropyH0 converts the -h0 threshold in bits to the library's fixed point.
func entropyH0(lib *stat4p4.Library, bits float64) uint64 {
	if bits <= 0 {
		return 0
	}
	return uint64(bits * float64(uint64(1)<<lib.Opts.EntropyFrac))
}

func replay(path string, tc trackConfig, rm *replayMetrics) error {
	lib := stat4p4.Build(tc.options())
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return err
	}
	switch tc.Track {
	case "window":
		_, err = rt.BindWindow(0, 0, stat4p4.AllIPv4(), tc.Shift, tc.Window, tc.K)
	case "dst24":
		_, err = rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, tc.Base, 256, 1, 1, tc.K)
	case "proto":
		_, err = rt.BindFreqProto(0, 0, stat4p4.AllIPv4(), 0, 256, 1, 1, tc.K)
	case "len":
		_, err = rt.BindFreqLen(0, 0, stat4p4.AllIPv4(), 6, 0, 256, 1, 1, tc.K)
	case "entropy":
		_, err = rt.BindEntropyDst(0, 0, stat4p4.AllIPv4(), 8, tc.Base, 256, entropyH0(lib, tc.H0Bits), tc.CheckEvery)
	case "hh":
		_, err = rt.BindHeavyHitterSrc(0, 0, stat4p4.AllIPv4(), 0, tc.SampleShift)
	default:
		return fmt.Errorf("unknown -track %q", tc.Track)
	}
	if err != nil {
		return err
	}
	return replayThrough(path, rt, tc, rm)
}

// replaySharded replays the capture through an N-shard deployment: the
// flow-hash dispatcher partitions each batch, shards run concurrently, and
// the end-of-run measures are read from the merged canonical view — the same
// numbers a serial replay of the capture prints.
func replaySharded(path string, tc trackConfig, shards int, sm *shardedMetrics) error {
	lib := stat4p4.Build(tc.options())
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		return err
	}
	defer sr.Close()
	if err := bindSharded(sr, tc); err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	ss := sr.Sharded()
	if sm != nil {
		sm.attach(ss)
	}
	r := packet.NewPcapReader(f)
	frames := 0
	var firstTs, lastTs uint64
	var alerts []p4.Digest
	drain := func() {
		for {
			select {
			case d := <-ss.Digests():
				alerts = append(alerts, d)
				continue
			default:
			}
			break
		}
	}
	// The batch buffer is copied per frame: the pcap reader reuses its frame
	// buffer, while the shards consume the batch concurrently at flush.
	batch := make([]p4.FrameIn, 0, replayBatchSize)
	flush := func() {
		ss.ProcessBatch(batch, nil)
		drain()
		batch = batch[:0]
	}
	for {
		ts, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if frames == 0 {
			firstTs = ts
		}
		lastTs = ts
		batch = append(batch, p4.FrameIn{TsNs: ts, Port: 1, Data: append([]byte(nil), frame...)})
		if len(batch) == replayBatchSize {
			flush()
		}
		frames++
	}
	flush()

	st := ss.Stats()
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors) over %d shards\n",
		frames, float64(lastTs-firstTs)/1e9, st.ParseErrors, shards)
	var maxShard uint64
	for i := 0; i < shards; i++ {
		in := ss.Shard(i).Stats().PktsIn
		if in > maxShard {
			maxShard = in
		}
		fmt.Printf("  shard %d: %d frames\n", i, in)
	}
	if maxShard > 0 {
		// A model of one pipeline per shard, not a measurement of this run:
		// here shard 0 ran on this goroutine and shards 1…n−1 on workers,
		// over however many cores the host had idle.
		fmt.Printf("modeled multi-pipeline speedup: %.2fx (total/busiest shard, one pipeline per shard; not this run's wall clock)\n",
			float64(st.PktsIn)/float64(maxShard))
	}
	if err := reportMerged(sr, tc, shards); err != nil {
		return err
	}
	printDigests(alerts)
	return nil
}

// reportMerged prints the end-of-run measure of a sharded replay from the
// merged canonical view — the same numbers a serial replay prints.
func reportMerged(sr *stat4p4.ShardedRuntime, tc trackConfig, shards int) error {
	switch tc.Track {
	case "window":
		// Windows are clock-driven per shard; the merged scalar view applies
		// to frequency modes, so report the per-shard moments instead.
		for i := 0; i < shards; i++ {
			m, _ := sr.ShardRuntime(i).ReadMoments(0)
			fmt.Printf("  shard %d window: N=%d Xsum=%d var=%d sd=%d\n", i, m.N, m.Xsum, m.Var, m.SD)
		}
	case "entropy":
		es, err := sr.MergedEntropy(0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"entropy\" (merged): T=%d S=%d → %.4f bits\n", es.Total, es.Sum, es.Bits)
	case "hh":
		entries, err := sr.MergedHeavyHitters(0)
		if err != nil {
			return err
		}
		var rejected uint64
		for i := 0; i < shards; i++ {
			rej, err := sr.ShardRuntime(i).HHRejected(0)
			if err != nil {
				return err
			}
			rejected += rej
		}
		printHeavyHitters(entries, rejected, tc.SampleShift)
	default:
		m, err := sr.MergedMoments(0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked %q (merged): N=%d Xsum=%d Xsumsq=%d var=%d sd=%d median-marker=%d\n",
			tc.Track, m.N, m.Xsum, m.Xsumsq, m.Var, m.SD, m.Median)
	}
	return nil
}

// printHeavyHitters renders the candidate table, heaviest first.
func printHeavyHitters(entries []stat4p4.HHEntry, rejected uint64, sampleShift uint) {
	fmt.Printf("tracked \"hh\": %d candidates promoted, %d recirculations rejected (table full)\n",
		len(entries), rejected)
	for i, e := range entries {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(entries)-10)
			break
		}
		fmt.Printf("  %v: %d promotions (≈%d packets at 2^-%d sampling)\n",
			packet.IP4(e.Key), e.Count, e.Count<<sampleShift, sampleShift)
	}
}

// printDigests renders the drained digests, decoding each ID's layout.
func printDigests(alerts []p4.Digest) {
	fmt.Printf("%d alert digests\n", len(alerts))
	for i, d := range alerts {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(alerts)-10)
			break
		}
		switch d.ID {
		case stat4p4.DigestEntropy:
			fmt.Printf("  [%0.3fs] entropy collapse: slot=%d T=%d H*T=%d h0*T=%d\n",
				float64(d.Values[4])/1e9, d.Values[0], d.Values[1], d.Values[2], d.Values[3])
		case stat4p4.DigestHeavyHitter:
			fmt.Printf("  [%0.3fs] heavy hitter promoted: slot=%d key=%v\n",
				float64(d.Values[2])/1e9, d.Values[0], packet.IP4(d.Values[1]))
		default:
			fmt.Printf("  [%0.3fs] slot=%d value=%d N*x=%d threshold=%d\n",
				float64(d.Values[4])/1e9, d.Values[0], d.Values[1], d.Values[2], d.Values[3])
		}
	}
}

// bindSharded applies one -track binding to a sharded runtime.
func bindSharded(sr *stat4p4.ShardedRuntime, tc trackConfig) error {
	var err error
	switch tc.Track {
	case "window":
		_, err = sr.BindWindow(0, 0, stat4p4.AllIPv4(), tc.Shift, tc.Window, tc.K)
	case "dst24":
		_, err = sr.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, tc.Base, 256, 1, 1, tc.K)
	case "proto":
		_, err = sr.BindFreqProto(0, 0, stat4p4.AllIPv4(), 0, 256, 1, 1, tc.K)
	case "len":
		_, err = sr.BindFreqLen(0, 0, stat4p4.AllIPv4(), 6, 0, 256, 1, 1, tc.K)
	case "entropy":
		_, err = sr.BindEntropyDst(0, 0, stat4p4.AllIPv4(), 8, tc.Base, 256, entropyH0(sr.Library(), tc.H0Bits), tc.CheckEvery)
	case "hh":
		_, err = sr.BindHeavyHitterSrc(0, 0, stat4p4.AllIPv4(), 0, tc.SampleShift)
	default:
		err = fmt.Errorf("unknown -track %q", tc.Track)
	}
	return err
}

// replayRing replays the capture through the stat4d ingest plane: frames go
// producer → MPSC ring → consumer → sharded datapath, losslessly (AddWait),
// and the end-of-run measures come from the engine's merged control-plane
// reads. The numbers must match what replaySharded prints for the same
// capture — the ring is invisible to the statistics.
func replayRing(path string, tc trackConfig, shards int, prom bool, jsonPath string) error {
	lib := stat4p4.Build(tc.options())
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		return err
	}
	defer sr.Close()
	if err := bindSharded(sr, tc); err != nil {
		return err
	}

	e := ingest.New(sr, ingest.Config{})
	frames, err := e.PlaySource(path, 1, true)
	if err != nil {
		e.Stop()
		return err
	}
	e.Stop() // drains every committed batch before returning

	st := sr.Sharded().Stats()
	fmt.Printf("replayed %d frames through the ingest ring (%d parse errors) over %d shards\n",
		frames, st.ParseErrors, shards)
	for i := 0; i < shards; i++ {
		fmt.Printf("  shard %d: %d frames\n", i, sr.Sharded().Shard(i).Stats().PktsIn)
	}
	if sb, sf := e.Shed(); sb != 0 || sf != 0 {
		return fmt.Errorf("lossless replay shed %d batches / %d frames", sb, sf)
	}
	if err := reportMerged(sr, tc, shards); err != nil {
		return err
	}
	alerts, total := e.Alerts()
	fmt.Printf("%d alerts total, last %d retained:\n", total, len(alerts))
	printDigests(alerts)
	if prom {
		if err := e.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := e.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// replayBatchSize bounds how many capture frames are handed to the switch
// per ProcessBatch call; digests are drained between batches so the channel
// never backs up on alert-heavy traces.
const replayBatchSize = 256

// replayThrough streams the capture into a prepared runtime in batches and
// reports.
func replayThrough(path string, rt *stat4p4.Runtime, tc trackConfig, rm *replayMetrics) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sw := rt.Switch()
	if rm != nil {
		rm.attach(sw)
	}
	r := packet.NewPcapReader(f)
	frames := 0
	var firstTs, lastTs uint64
	var alerts []p4.Digest
	drain := func() {
		for {
			select {
			case d := <-sw.Digests():
				alerts = append(alerts, d)
				if rm != nil {
					rm.sw.DigestDelivered()
				}
				continue
			default:
			}
			break
		}
	}
	batch := make([]p4.FrameIn, 0, replayBatchSize)
	flush := func() {
		sw.ProcessBatch(batch, nil)
		drain()
		batch = batch[:0]
	}
	for {
		ts, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if frames == 0 {
			firstTs = ts
		}
		lastTs = ts
		batch = append(batch, p4.FrameIn{TsNs: ts, Port: 1, Data: frame})
		if len(batch) == replayBatchSize {
			flush()
		}
		frames++
	}
	flush()

	st := sw.Stats()
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors)\n",
		frames, float64(lastTs-firstTs)/1e9, st.ParseErrors)
	switch tc.Track {
	case "entropy":
		es, err := rt.ReadEntropy(0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"entropy\": T=%d S=%d → %.4f bits\n", es.Total, es.Sum, es.Bits)
	case "hh":
		entries, err := rt.ReadHeavyHitters(0)
		if err != nil {
			return err
		}
		rejected, err := rt.HHRejected(0)
		if err != nil {
			return err
		}
		fmt.Printf("%d recirculations\n", st.Recirculated)
		printHeavyHitters(entries, rejected, tc.SampleShift)
	default:
		m, _ := rt.ReadMoments(0)
		fmt.Printf("tracked %q: N=%d Xsum=%d Xsumsq=%d var=%d sd=%d median-marker=%d\n",
			tc.Track, m.N, m.Xsum, m.Xsumsq, m.Var, m.SD, m.Median)
	}
	printDigests(alerts)
	return nil
}
