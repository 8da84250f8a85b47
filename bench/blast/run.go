package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"stat4/internal/ingest"
)

// transport is stated in every report: the numbers include a kernel socket
// but no NIC, no wire and no second host.
const transport = "unix-domain socket on the host's loopback; no link was crossed"

// config is one run of one workload.
type config struct {
	w       workload
	seed    int64
	seconds float64 // the measured window
	quick   bool    // test sizing: short windows, small trace and flow table
	outDir  string  // socket and trace files
	log     io.Writer
}

func (c *config) traceFrames() int {
	if c.quick {
		return 1 << 14
	}
	return 1 << 18
}

// span returns a share of the measured window.
func (c *config) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c *config) warmup() time.Duration {
	if c.quick {
		return 50 * time.Millisecond
	}
	return time.Second
}

// tick is the bulk phase's sampling interval: a quarter second, long enough
// that getrusage's per-thread lag (one scheduler tick) stays under 2 %, or a
// tenth of the phase when that is shorter.
func (c *config) tick(bulk time.Duration) time.Duration {
	if bulk < 2500*time.Millisecond {
		return bulk / 10
	}
	return 250 * time.Millisecond
}

func (c *config) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// session is the part every run shares: inputs, the verified rig, and the
// books. Verification failures do not stop the run - the result line still
// needs its metrics - they mark it incorrect and fail every operation.
type session struct {
	cfg  *config
	tr   *trace
	rig  *rig
	feed *feeder
	bad  []error
}

func (c *config) start(trace int) (*session, error) {
	if c.quick && c.w.flowBuckets > 0 {
		c.w.flowBuckets = 1 << 14
	}
	c.logf("stat4-blast %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s",
		c.w.name, c.seed, c.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	c.logf("transport: %s", transport)
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	tr, err := encode(c.w.generate(c.seed, c.traceFrames()), c.traceFrames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.w.name, err)
	}
	return &session{cfg: c, tr: tr}, nil
}

// open replays the reference, brings up the rig, and runs the verify pass.
func (s *session) open() error {
	ref, err := replayReference(&s.cfg.w, s.tr)
	if err != nil {
		return err
	}
	// The reference runtimes are benchmark state; hand their pages back
	// before the measured engine exists so peak RSS is the program's.
	debug.FreeOSMemory()
	if s.rig, err = newRig(&s.cfg.w, s.cfg.outDir); err != nil {
		return err
	}
	s.feed = &feeder{tr: s.tr, r: s.rig}
	if err := s.feed.laps(verifyLaps); err != nil {
		return err
	}
	if err := ref.check(s.rig.e); err != nil {
		s.bad = append(s.bad, err)
		s.cfg.logf("verify: FAILED: %v", err)
	} else {
		against := "the offline sharded replay"
		if ref.hasSerial {
			against += " and the canonicalised serial runtime"
		}
		s.cfg.logf("verify: %d laps (%d frames, %d alerts) match %s", verifyLaps, s.feed.offered, ref.alerts, against)
	}
	return nil
}

// close balances the ledger, shuts the rig down like the daemon, and returns
// the result shell: correct, attempted, failed.
func (s *session) close() (result, error) {
	failed, err := ledger(s.rig.e, s.feed.offered)
	if err != nil {
		s.bad = append(s.bad, err)
		s.cfg.logf("ledger: FAILED: %v", err)
	}
	if err := s.rig.close(); err != nil {
		return result{}, err
	}
	res := result{Correct: len(s.bad) == 0, Attempted: s.feed.offered, Failed: failed}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	s.cfg.logf("operations: %d frames offered, %d failed (shed, parse-rejected or unaccounted)", res.Attempted, res.Failed)
	return res, nil
}

// measureSetup times cold constructions of the daemon's datapath, each from
// program emission to the first batch absorbed and torn down again, for a
// second (at least 5, at most 200), and returns their fast decile: like the
// bulk ticks, a construction is only ever slowed by the host, never sped up.
// Input generation is outside it.
func measureSetup(w *workload, tr *trace) (seconds float64, reps int, err error) {
	var took []float64
	for start := time.Now(); len(took) < 5 || (len(took) < 200 && time.Since(start) < time.Second); {
		t0 := time.Now()
		sr, err := w.datapath()
		if err != nil {
			return 0, 0, err
		}
		e := ingest.New(sr, ingest.Config{})
		p := e.NewProducer()
		for i := 0; i < batchFrames; i++ {
			p.AddWait(tr.ts[i], 1, tr.frame(i))
		}
		p.FlushWait()
		for e.Frames() < batchFrames {
			runtime.Gosched()
		}
		p.Close()
		e.Stop()
		sr.Close()
		took = append(took, time.Since(t0).Seconds())
	}
	return ranked(took, 0.1), len(took), nil
}

// runEndToEnd is --trace 0: everything a user of the daemon would see, with
// nothing watching the engine but the generator's completion polls.
func runEndToEnd(c *config) (result, error) {
	s, err := c.start(0)
	if err != nil {
		return result{}, err
	}
	if err := s.open(); err != nil {
		return result{}, err
	}
	if _, err := s.feed.bulk(c.warmup(), time.Hour); err != nil {
		return result{}, err
	}
	bulkFor := c.span(bulkShare)
	bulk, err := s.feed.bulk(bulkFor, c.tick(bulkFor))
	if err != nil {
		return result{}, err
	}
	bursts, err := s.feed.burst(c.span(1 - bulkShare))
	if err != nil {
		return result{}, err
	}
	res, err := s.close()
	if err != nil {
		return result{}, err
	}
	// Peak RSS is read before the set-up constructions: two hundred of them
	// leave more garbage behind than the running engine ever holds.
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	setup, reps, err := measureSetup(&c.w, s.tr)
	if err != nil {
		return result{}, err
	}

	got := map[string]float64{
		"setup_s":        setup,
		"pps":            bulk.pps(),
		"cpu_ns_per_pkt": bulk.cpuNsPerPkt(),
		"burst_p10_us":   quantile(bursts, 0.10),
		"peak_rss_mb":    rss,
	}
	res.fill(endToEnd, got)
	c.logf("%-16s %12.6f s    fast decile of %d cold constructions (emit, instantiate, bind, first batch, stop)", "setup_s", setup, reps)
	c.logf("%-16s %12.0f 1/s  best twentieth of %d ticks (median %.0f) over %.1fs, %d frames, closed loop, window %d", "pps", bulk.pps(), len(bulk.rates), median(bulk.rates), bulk.wall.Seconds(), bulk.frames, window)
	c.logf("%-16s %12.1f ns   best twentieth of %d ticks (median %.1f), process cpu %.2fs, generator writes included (%.1f ns/pkt)", "cpu_ns_per_pkt", bulk.cpuNsPerPkt(), len(bulk.cpuNs), median(bulk.cpuNs), bulk.use.cpu.Seconds(), bulk.writeNsPerPkt())
	c.logf("%-16s %12.2f us   fast decile of %d bursts of %d frames, one in flight", "burst_p10_us", got["burst_p10_us"], len(bursts), burstFrames)
	c.logf("%-16s %12.2f MB   VmHWM", "peak_rss_mb", rss)
	c.logf("burst p50 %.1f, p90 %.1f, p99 %.1f, p99.9 %.1f us (reported under --trace 1, not gated)",
		quantile(bursts, 0.5), quantile(bursts, 0.9), quantile(bursts, 0.99), quantile(bursts, 0.999))
	c.logf("tick rates, kpps:%s", series(bulk.rates, 1e-3))
	c.logf("tick cpu, ns/pkt:%s", series(bulk.cpuNs, 1))
	c.logf("generator blocked on the window %.0f%% of the bulk phase (above 50%% the program, not the generator, set pps)", 100*bulk.windowFullFrac())
	return res, nil
}

// series prints scaled values on one line.
func series(xs []float64, scale float64) string {
	var b []byte
	for _, x := range xs {
		b = fmt.Appendf(b, " %.0f", x*scale)
	}
	return string(b)
}

// bulkShare splits the measured window between the bulk and burst phases.
const bulkShare = 0.8
