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
	"encoding/json"
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
	tc := trackFlags(flag.CommandLine)
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
	rt, _, err := replay(flag.Arg(0), *tc, *shards, rm)
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

// trackFlags defines the track flags on fs, to be read into the returned
// trackConfig when fs is parsed.
func trackFlags(fs *flag.FlagSet) *trackConfig {
	tc := &trackConfig{TrackParams: stat4p4.TrackDefaults}
	fs.StringVar(&tc.Track, "track", "window", "statistic to bind: "+strings.Join(stat4p4.Tracks(), " | "))
	fs.UintVar(&tc.IntervalShift, "interval-shift", tc.IntervalShift, "window interval exponent (2^shift ns)")
	fs.IntVar(&tc.Window, "window", tc.Window, "window length in intervals")
	fs.Uint64Var(&tc.K, "k", 2, "sigma multiplier for the anomaly check (0 disables for freq modes)")
	fs.StringVar(&tc.Base, "base-prefix", tc.Base, "dst24/entropy modes: /16 whose /24 subnets are indexed")
	fs.Float64Var(&tc.H0Bits, "h0", 0, "entropy mode: alert when the mix drops below this many bits (0 disables)")
	fs.Uint64Var(&tc.CheckEvery, "check-every", 1024, "entropy mode: check cadence in observations (power of two)")
	fs.UintVar(&tc.SampleShift, "sample-shift", 6, "hh mode: recirculation probability 2^-shift")
	return tc
}

// replayMetrics is the telemetry wiring of a replay: one switch observer per
// shard (single-writer: whichever goroutine runs the shard), the merged
// fleet view, and the runtime's series — the per-shard + merged split in one
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

// attach installs one observer per shard and exposes the fleet view and
// the runtime's series.
func (rm *replayMetrics) attach(rt *stat4p4.Runtime) {
	for i := 0; i < rt.NumShards(); i++ {
		rt.Sharded().Shard(i).SetObserver(rm.sp.Shards[i])
	}
	rm.sp.Register(rm.reg)
	stat4p4.RegisterMetrics(rt, rm.reg)
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
// parameters, SampleShift the -sample-shift flag, or an app config.
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
	return stat4p4.TrackOptions(tc.Track, stat4p4.TrackBase)
}

// install applies the app config or the track's binding to a runtime.
func (tc trackConfig) install(rt *stat4p4.Runtime) (err error) {
	if tc.App != nil {
		_, err = tc.App.Install(rt)
	} else {
		tc.SampleShift = stat4p4.FlagSampleShift(tc.Track, tc.SampleShift)
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
		for len(ss.Digests()) > 0 {
			onDigest(<-ss.Digests())
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
		rm.attach(rt)
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
	fmt.Printf("replayed %d frames spanning %.3fs (%d parse errors, %d recirculations)\n",
		frames, seconds, st.ParseErrors, st.Recirculated)
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
	if err := report(os.Stdout, rt, tc.Track); err != nil {
		return rt, nil, err
	}
	printDigests(alerts)
	return rt, alerts, nil
}

// report prints slot 0's end-of-run answer: the body of the view row its
// kind reads back through, as stat4d serves it at /<row>?slot=0&n=10 — one
// shard's registers, or the merge of several. A kind whose merged read is
// not its answer (a window, clock-driven per shard) prints each shard's.
func report(w io.Writer, rt *stat4p4.Runtime, track string) error {
	v, merged := rt.SlotView(0)
	answer := func(label string, body any, err error) error {
		if err != nil {
			return err
		}
		js, err := json.Marshal(body)
		if err == nil {
			_, err = fmt.Fprintf(w, "%s /%s: %s\n", label, v.Name(), js)
		}
		return err
	}
	if rt.NumShards() == 1 || merged {
		label := fmt.Sprintf("tracked %q", track)
		if rt.NumShards() > 1 {
			label += " (merged)"
		}
		body, err := v.Body(rt, 0, reportEntries)
		return answer(label, body, err)
	}
	for i := 0; i < rt.NumShards(); i++ {
		body, err := v.ShardBody(rt, i, 0, reportEntries)
		if err := answer(fmt.Sprintf("  shard %d", i), body, err); err != nil {
			return err
		}
	}
	return nil
}

// reportEntries is how many cells or entries an answer keeps.
const reportEntries = 10

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
