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
	var rm *replayMetrics
	if *metrics || *metricsOut != "" {
		rm = newReplayMetrics(*shards)
	}
	rt, _, err := replay(flag.Arg(0), tc, *shards, rm)
	if rt != nil {
		rt.Close()
	}
	if err == nil && rm != nil {
		err = rm.emit(*metrics, *metricsOut)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// replayMetrics is the telemetry wiring of a replay: one switch observer per
// shard (single-writer: whichever goroutine runs the shard), the merged
// fleet view, and the fleet counters — the per-shard + merged split in one
// registry.
type replayMetrics struct {
	sp  *telemetry.ShardedPipeline
	reg *telemetry.Registry
}

func newReplayMetrics(shards int) *replayMetrics {
	return &replayMetrics{
		sp:  telemetry.NewShardedPipeline(shards),
		reg: telemetry.NewRegistry("stat4_replay"),
	}
}

// attach installs one observer per shard and exposes the fleet counters.
func (rm *replayMetrics) attach(ss *p4.ShardedSwitch) {
	for i := 0; i < ss.NumShards(); i++ {
		ss.Shard(i).SetObserver(rm.sp.Shards[i])
	}
	rm.sp.Register(rm.reg)
	rm.reg.RegisterCounter("pkts_in", "frames handed to the pipelines", func() uint64 { return ss.Stats().PktsIn })
	rm.reg.RegisterCounter("pkts_out", "frames emitted by the pipelines", func() uint64 { return ss.Stats().PktsOut })
	rm.reg.RegisterCounter("parse_errors", "frames rejected by the parsers", func() uint64 { return ss.Stats().ParseErrors })
}

// emit refreshes the merged view and prints the Prometheus exposition
// and/or writes the JSON snapshot, as requested.
func (rm *replayMetrics) emit(prom bool, jsonPath string) error {
	rm.sp.Refresh()
	if prom {
		if err := rm.reg.WriteProm(os.Stdout); err != nil {
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
	if err := rm.reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// trackConfig is what a replay binds and reports: a -track with its
// parameters, or an app config.
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
func (tc trackConfig) install(rt *stat4p4.Runtime) (err error) {
	if tc.App != nil {
		_, err = tc.App.Install(rt)
	} else {
		_, err = stat4p4.BindTrack(rt, tc.Track, tc.TrackParams)
	}
	return err
}

// feed streams the capture through the data plane in replayBatchSize
// batches, draining the digest channel between batches so it never backs up
// on alert-heavy traces. It returns the frame count and the capture's span in
// seconds.
func feed(path string, ss *p4.ShardedSwitch, onDigest func(p4.Digest)) (frames int, seconds float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := packet.NewPcapReader(f)
	var firstTs, lastTs uint64
	batch := make([]p4.FrameIn, 0, replayBatchSize)
	flush := func() {
		ss.ProcessBatch(batch, nil)
		batch = batch[:0]
		for {
			select {
			case d := <-ss.Digests():
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

// replay streams the capture through an n-shard deployment of the track (or
// config) — the flow-hash dispatcher partitions each batch and the shards
// run it — and prints the end-of-run measures and the alerts. It returns the
// drained alerts and the runtime, once built, for the caller to read and
// Close, error or not.
func replay(path string, tc trackConfig, shards int, rm *replayMetrics) (*stat4p4.Runtime, []p4.Digest, error) {
	opts, err := tc.options()
	if err != nil {
		return nil, nil, err
	}
	rt, err := stat4p4.NewShardedRuntime(stat4p4.Build(opts), shards)
	if err != nil {
		return nil, nil, err
	}
	if err := tc.install(rt); err != nil {
		return rt, nil, err
	}
	ss := rt.Sharded()
	if rm != nil {
		rm.attach(ss)
	}
	var alerts []p4.Digest
	frames, seconds, err := feed(path, ss, func(d p4.Digest) {
		alerts = append(alerts, d)
		if rm != nil && shards == 1 {
			// One shard raised every digest, so its observer can pair each
			// with its emit stamp.
			rm.sp.Shards[0].DigestDelivered()
		}
	})
	if err != nil {
		return rt, nil, err
	}

	st := ss.Stats()
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors)", frames, seconds, st.ParseErrors)
	if tc.Track == "hh" {
		fmt.Printf(", %d recirculations", st.Recirculated)
	}
	fmt.Println()
	if shards > 1 {
		fmt.Printf("over %d shards\n", shards)
		var maxShard uint64
		for i := 0; i < shards; i++ {
			in := ss.Shard(i).Stats().PktsIn
			maxShard = max(maxShard, in)
			fmt.Printf("  shard %d: %d frames\n", i, in)
		}
		// A model of one pipeline per shard, not a measurement of this run:
		// here shard 0 ran on this goroutine and shards 1…n−1 on the caller
		// or workers, over however many cores the host had idle.
		fmt.Printf("modeled multi-pipeline speedup: %.2fx (total/busiest shard, one pipeline per shard; not this run's wall clock)\n",
			float64(st.PktsIn)/float64(max(maxShard, 1)))
	}
	if err := report(rt, tc); err != nil {
		return rt, nil, err
	}
	printDigests(alerts)
	return rt, alerts, nil
}

// report prints slot 0's end-of-run measure for the track: one shard's
// registers, or the merged view of several. A window is clock-driven per
// shard and has no merged form, so on several shards each shard's is
// printed.
func report(rt *stat4p4.Runtime, tc trackConfig) error {
	label := ""
	if rt.NumShards() > 1 {
		label = " (merged)"
		if tc.Track == "window" {
			for i := 0; i < rt.NumShards(); i++ {
				m, err := stat4p4.ReadShard(rt, stat4p4.Moments, i, 0)
				if err != nil {
					return err
				}
				fmt.Printf("  shard %d window: N=%d Xsum=%d var=%d sd=%d\n", i, m.N, m.Xsum, m.Var, m.SD)
			}
			return nil
		}
	}
	switch tc.Track {
	case "entropy":
		es, err := stat4p4.Read(rt, stat4p4.Entropy, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"entropy\"%s: T=%d S=%d → %.4f bits\n", label, es.Total, es.Sum, es.Bits)
	case "hh":
		hh, err := stat4p4.Read(rt, stat4p4.HeavyHitters, 0)
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
		st, err := stat4p4.Read(rt, stat4p4.FlowLedger, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked \"flow\"%s: %d of %d buckets occupied; %d admitted, %d evicted, %d rejected, %d shed\n",
			label, st.Occupied, st.Capacity, st.Admitted, st.Evicted, st.Rejected, st.Shed)
	default:
		mo, err := stat4p4.Read(rt, stat4p4.Moments, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tracked %q%s: N=%d Xsum=%d Xsumsq=%d var=%d sd=%d median-marker=%d\n",
			tc.Track, label, mo.N, mo.Xsum, mo.Xsumsq, mo.Var, mo.SD, mo.Median)
	}
	return nil
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

// replayBatchSize bounds how many capture frames are handed to the switch
// per ProcessBatch call.
const replayBatchSize = 256
