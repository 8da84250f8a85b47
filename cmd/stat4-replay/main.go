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
	"strings"

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
	tc := trackConfig{TrackParams: stat4p4.TrackDefaults}
	flag.StringVar(&tc.Track, "track", "window", "statistic to bind: "+strings.Join(stat4p4.Tracks(), " | "))
	flag.UintVar(&tc.IntervalShift, "interval-shift", tc.IntervalShift, "window interval exponent (2^shift ns)")
	flag.IntVar(&tc.Window, "window", tc.Window, "window length in intervals")
	flag.Uint64Var(&tc.K, "k", 2, "sigma multiplier for the anomaly check (0 disables for freq modes)")
	flag.StringVar(&tc.Base, "base-prefix", tc.Base, "dst24/entropy modes: /16 whose /24 subnets are indexed")
	flag.Float64Var(&tc.H0Bits, "h0", 0, "entropy mode: alert when the mix drops below this many bits (0 disables)")
	flag.Uint64Var(&tc.CheckEvery, "check-every", 1024, "entropy mode: check cadence in observations (power of two)")
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
	if tc.Track == "hh" {
		// -sample-shift is the hh coin; the flow track admits every flow.
		tc.SampleShift = *sampleShift
	}
	if *configPath != "" {
		cf, err := os.Open(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		tc.App, err = stat4p4.LoadAppConfig(cf)
		cf.Close()
		if err != nil {
			log.Fatal(err)
		}
		tc.Track = "config"
		fmt.Printf("applying %s: %d bindings, %d routes\n", *configPath, len(tc.App.Bindings), len(tc.App.Routes))
	}
	wantMetrics := *metrics || *metricsOut != ""
	var err error
	switch {
	case *ringFeed:
		err = replayRing(flag.Arg(0), tc, *shards, *metrics, *metricsOut)
	case *shards > 1:
		sm := newShardedMetrics(*shards, wantMetrics)
		if err = replaySharded(flag.Arg(0), tc, *shards, sm); err == nil && sm != nil {
			err = sm.emit(*metrics, *metricsOut)
		}
	default:
		var rm *replayMetrics
		if wantMetrics {
			rm = newReplayMetrics()
		}
		if err = replay(flag.Arg(0), tc, rm); err == nil && rm != nil {
			err = writeMetrics(rm.reg, *metrics, *metricsOut)
		}
	}
	if err != nil {
		log.Fatal(err)
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
	return writeMetrics(sm.reg, prom, jsonPath)
}

// exposition is what a metrics source renders: a telemetry registry, or the
// ingest engine's.
type exposition interface {
	WriteProm(io.Writer) error
	WriteJSON(io.Writer) error
}

// writeMetrics prints the Prometheus exposition and/or writes the JSON
// snapshot, as requested.
func writeMetrics(src exposition, prom bool, jsonPath string) error {
	if prom {
		if err := src.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := src.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// trackConfig is what every replay flavor (serial, sharded, ring-fed) binds
// and reports: a -track with its parameters, or an app config.
type trackConfig struct {
	Track string // "config" when App is set
	stat4p4.TrackParams
	App *stat4p4.AppConfig
}

// options sizes the program: the app config's own sizing, or one slot with
// only the measure the track needs compiled in.
func (tc trackConfig) options() (stat4p4.Options, error) {
	if tc.App != nil {
		return tc.App.Options, nil
	}
	return stat4p4.TrackOptions(tc.Track, stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
}

// install applies the app config or the track's binding to a runtime.
func (tc trackConfig) install(t stat4p4.Target) (err error) {
	if tc.App != nil {
		_, err = tc.App.Install(t)
	} else {
		_, err = stat4p4.BindTrack(t, tc.Track, tc.TrackParams)
	}
	return err
}

func replay(path string, tc trackConfig, rm *replayMetrics) error {
	opts, err := tc.options()
	if err != nil {
		return err
	}
	rt, err := stat4p4.NewRuntime(stat4p4.Build(opts))
	if err != nil {
		return err
	}
	if err := tc.install(rt); err != nil {
		return err
	}
	return replayThrough(path, rt, tc, rm)
}

// dataplane is what a replay feeds: a serial switch or the sharded one.
type dataplane interface {
	ProcessBatch(batch []p4.FrameIn, emit func(p4.FrameOut))
	Digests() <-chan p4.Digest
}

// feed streams the capture through the data plane in replayBatchSize
// batches, draining the digest channel between batches so it never backs up
// on alert-heavy traces. It returns the frame count and the capture's span in
// seconds.
func feed(path string, dp dataplane, onDigest func(p4.Digest)) (frames int, seconds float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := packet.NewPcapReader(f)
	var firstTs, lastTs uint64
	batch := make([]p4.FrameIn, 0, replayBatchSize)
	flush := func() {
		dp.ProcessBatch(batch, nil)
		batch = batch[:0]
		for {
			select {
			case d := <-dp.Digests():
				onDigest(d)
				continue
			default:
			}
			return
		}
	}
	for {
		ts, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return frames, 0, err
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
	return frames, float64(lastTs-firstTs) / 1e9, nil
}

// newSharded builds the track's (or config's) program on N shards and
// installs it.
func newSharded(tc trackConfig, shards int) (*stat4p4.ShardedRuntime, error) {
	opts, err := tc.options()
	if err != nil {
		return nil, err
	}
	sr, err := stat4p4.NewShardedRuntime(stat4p4.Build(opts), shards)
	if err != nil {
		return nil, err
	}
	if err := tc.install(sr); err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}

// replaySharded replays the capture through an N-shard deployment: the
// flow-hash dispatcher partitions each batch, shards run concurrently, and
// the end-of-run measures are read from the merged canonical view — the same
// numbers a serial replay of the capture prints.
func replaySharded(path string, tc trackConfig, shards int, sm *shardedMetrics) error {
	sr, err := newSharded(tc, shards)
	if err != nil {
		return err
	}
	defer sr.Close()
	ss := sr.Sharded()
	if sm != nil {
		sm.attach(ss)
	}
	var alerts []p4.Digest
	frames, seconds, err := feed(path, ss, func(d p4.Digest) { alerts = append(alerts, d) })
	if err != nil {
		return err
	}

	st := ss.Stats()
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors) over %d shards\n",
		frames, seconds, st.ParseErrors, shards)
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
	if err := reportMerged(sr, tc); err != nil {
		return err
	}
	printDigests(alerts)
	return nil
}

// report prints slot 0's end-of-run measure for the track, read from one
// switch's registers or the merged view of a sharded deployment.
func report(src stat4p4.Target, tc trackConfig, label string) error {
	switch tc.Track {
	case "entropy":
		es, err := stat4p4.Read(src, stat4p4.Entropy, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"entropy\"%s: T=%d S=%d → %.4f bits\n", label, es.Total, es.Sum, es.Bits)
	case "hh":
		hh, err := stat4p4.Read(src, stat4p4.HeavyHitters, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"hh\"%s: %d candidates promoted, %d recirculations rejected (table full)\n",
			label, len(hh.Entries), hh.Rejected)
		for i, e := range hh.Entries {
			if i == 10 {
				fmt.Printf("  ... %d more\n", len(hh.Entries)-10)
				break
			}
			fmt.Printf("  %v: %d promotions (≈%d packets at 2^-%d sampling)\n",
				packet.IP4(e.Key), e.Count, e.Count<<tc.SampleShift, tc.SampleShift)
		}
	case "flow":
		st, err := stat4p4.Read(src, stat4p4.FlowLedger, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"flow\"%s: %d of %d buckets occupied; %d admitted, %d evicted, %d rejected, %d shed\n",
			label, st.Occupied, st.Capacity, st.Admitted, st.Evicted, st.Rejected, st.Shed)
	default:
		mo, err := stat4p4.Read(src, stat4p4.Moments, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked %q%s: N=%d Xsum=%d Xsumsq=%d var=%d sd=%d median-marker=%d\n",
			tc.Track, label, mo.N, mo.Xsum, mo.Xsumsq, mo.Var, mo.SD, mo.Median)
	}
	return nil
}

// reportMerged prints the end-of-run measure of a sharded replay from the
// merged canonical view — the same numbers a serial replay prints.
func reportMerged(sr *stat4p4.ShardedRuntime, tc trackConfig) error {
	if tc.Track == "window" {
		// Windows are clock-driven per shard; the merged scalar view applies
		// to frequency modes, so report the per-shard moments instead.
		for i := 0; i < sr.NumShards(); i++ {
			m, _ := stat4p4.Read(sr.ShardRuntime(i), stat4p4.Moments, 0)
			fmt.Printf("  shard %d window: N=%d Xsum=%d var=%d sd=%d\n", i, m.N, m.Xsum, m.Var, m.SD)
		}
		return nil
	}
	return report(sr, tc, " (merged)")
}

// printDigests renders the drained digests by their decoded layout.
func printDigests(alerts []p4.Digest) {
	fmt.Printf("%d alert digests\n", len(alerts))
	for i, d := range alerts {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(alerts)-10)
			break
		}
		a, err := stat4p4.DecodeDigest(d)
		if err != nil {
			fmt.Printf("  %v\n", err)
			continue
		}
		fmt.Printf("  [%0.3fs] %s: slot=%d", float64(a.TsNs)/1e9, a.Kind, a.Slot)
		for j, name := range a.Fields {
			if name == "key" {
				fmt.Printf(" key=%v", packet.IP4(a.Values[j]))
			} else {
				fmt.Printf(" %s=%d", name, a.Values[j])
			}
		}
		fmt.Println()
	}
}

// replayRing replays the capture through the stat4d ingest plane: frames go
// producer → MPSC ring → consumer → sharded datapath, losslessly (AddWait),
// and the end-of-run measures come from the engine's merged control-plane
// reads. The numbers must match what replaySharded prints for the same
// capture — the ring is invisible to the statistics.
func replayRing(path string, tc trackConfig, shards int, prom bool, jsonPath string) error {
	sr, err := newSharded(tc, shards)
	if err != nil {
		return err
	}
	defer sr.Close()

	e := ingest.New(sr, ingest.Config{})
	frames, err := e.PlaySource(path, 1, true)
	e.Stop() // drains every committed batch before returning
	if err != nil {
		return err
	}

	st := sr.Sharded().Stats()
	fmt.Printf("replayed %d frames through the ingest ring (%d parse errors) over %d shards\n",
		frames, st.ParseErrors, shards)
	for i := 0; i < shards; i++ {
		fmt.Printf("  shard %d: %d frames\n", i, sr.Sharded().Shard(i).Stats().PktsIn)
	}
	if sb, sf := e.Shed(); sb != 0 || sf != 0 {
		return fmt.Errorf("lossless replay shed %d batches / %d frames", sb, sf)
	}
	if err := reportMerged(sr, tc); err != nil {
		return err
	}
	alerts, total := e.Alerts()
	fmt.Printf("%d alerts total, last %d retained:\n", total, len(alerts))
	printDigests(alerts)
	return writeMetrics(e, prom, jsonPath)
}

// replayBatchSize bounds how many capture frames are handed to the switch
// per ProcessBatch call.
const replayBatchSize = 256

// replayThrough streams the capture into a prepared serial runtime and
// reports.
func replayThrough(path string, rt *stat4p4.Runtime, tc trackConfig, rm *replayMetrics) error {
	sw := rt.Switch()
	if rm != nil {
		rm.attach(sw)
	}
	var alerts []p4.Digest
	frames, seconds, err := feed(path, sw, func(d p4.Digest) {
		alerts = append(alerts, d)
		if rm != nil {
			rm.sw.DigestDelivered()
		}
	})
	if err != nil {
		return err
	}
	st := sw.Stats()
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors)\n", frames, seconds, st.ParseErrors)
	if tc.Track == "hh" {
		fmt.Printf("%d recirculations\n", st.Recirculated)
	}
	if err := report(rt, tc, ""); err != nil {
		return err
	}
	printDigests(alerts)
	return nil
}
