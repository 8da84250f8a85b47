// Command stat4d runs the Stat4 switch as a long-lived daemon: any number of
// ingest streams (pcap sources, TCP or unix-socket frame feeds) fan through a
// lock-free MPSC ring into the sharded datapath, while an HTTP control plane
// serves telemetry, merged register snapshots, drill-down counter reads,
// binding updates and the alert log. SIGTERM/SIGINT drains the ring before
// exit so every committed frame reaches the statistics.
//
//	stat4d -shards 4 -listen :9414 -http :9415 -track dst24 -k 2
//	stat4d -http :9415 -pcap trace.pcap            # play a capture and serve
//	stat4d -push trace.pcap -connect host:9414     # client: stream a capture
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stat4d: ")

	var cfg daemonConfig
	flag.IntVar(&cfg.Shards, "shards", 1, "replicate the datapath over N flow-hash shards")
	flag.StringVar(&cfg.Listen, "listen", "", "TCP address accepting length-prefixed frame streams")
	flag.StringVar(&cfg.Unix, "unix", "", "unix socket path accepting frame streams")
	flag.StringVar(&cfg.HTTP, "http", "", "HTTP control-plane address (/metrics, /snapshot, /bind, ...)")
	flag.StringVar(&cfg.Pcap, "pcap", "", "pcap file or directory to play at startup (lossless)")
	flag.StringVar(&cfg.Track, "track", "dst24", "statistic to bind: "+strings.Join(stat4p4.Tracks(), " | ")+" | none")
	flag.UintVar(&cfg.Shift, "interval-shift", 23, "window interval exponent (2^shift ns)")
	flag.IntVar(&cfg.Window, "window", 100, "window length in intervals")
	flag.Uint64Var(&cfg.K, "k", 0, "sigma multiplier for the anomaly check (0 disables)")
	flag.StringVar(&cfg.BasePrefix, "base-prefix", "10.0.0.0", "dst24/entropy modes: /16 whose /24 subnets are indexed")
	flag.Float64Var(&cfg.H0Bits, "h0", 0, "entropy mode: alert when the mix drops below this many bits (0 disables)")
	flag.Uint64Var(&cfg.CheckEvery, "check-every", 1024, "entropy mode: check cadence in observations (power of two)")
	flag.UintVar(&cfg.SampleShift, "sample-shift", 6, "hh mode: recirculation probability 2^-shift")
	flag.IntVar(&cfg.FlowTable, "flow-table", 0, "flow-table buckets per slot (power of two, 0 leaves the flow table out)")
	flag.UintVar(&cfg.FlowEpochShift, "flow-epoch-shift", 23, "flow mode: expiry epoch exponent (2^shift ns)")
	flag.Uint64Var(&cfg.FlowTTL, "flow-ttl", 4, "flow mode: epochs of silence before an entry is reclaimable")
	flag.IntVar(&cfg.RingCap, "ring-cap", 256, "ingest ring capacity in batch descriptors")
	flag.IntVar(&cfg.SlabBlocks, "slab-blocks", 256, "frame slab block count")
	flag.IntVar(&cfg.BlockSize, "block-size", 32<<10, "frame slab block size in bytes; a frame longer than this less the 14-byte record header is shed")
	flag.IntVar(&cfg.Batch, "batch", 256, "frames per batch descriptor")
	push := flag.String("push", "", "client mode: stream this pcap to -connect and exit")
	connect := flag.String("connect", "", "client mode: daemon frame-stream address (host:port or unix path)")
	flag.Parse()

	if *push != "" {
		if err := pushPcap(*push, *connect); err != nil {
			log.Fatal(err)
		}
		return
	}
	d, err := newDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.start(); err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	log.Printf("%v: draining", s)
	d.shutdown()
	st := d.engine.Stats()
	log.Printf("served %d frames in %d batches (%d shed), %d alerts",
		st.Frames, st.Batches, st.ShedFrames, st.AlertsTotal)
}

// daemonConfig is everything a daemon instance needs, flag-free so the smoke
// test constructs one in-process.
type daemonConfig struct {
	Shards      int
	Listen      string // TCP frame-stream address, "" to disable
	Unix        string // unix-socket frame-stream path, "" to disable
	HTTP        string // control-plane address, "" to disable
	Pcap        string // startup capture source, "" to skip
	Track       string
	Shift       uint
	Window      int
	K           uint64
	BasePrefix  string
	H0Bits      float64
	CheckEvery  uint64
	SampleShift uint
	// FlowTable sizes the flow table in buckets per slot
	// (0 leaves it out of the program entirely, keeping the default sizing
	// identical to the "entropy-hh" catalog entry).
	FlowTable      int
	FlowEpochShift uint
	FlowTTL        uint64
	RingCap        int
	SlabBlocks     int
	BlockSize      int
	Batch          int
}

// daemon is one running stat4d instance: the bound sharded runtime, the
// ingest engine in front of it, and the listeners feeding it.
type daemon struct {
	cfg    daemonConfig
	rt     *stat4p4.Runtime
	engine *ingest.Engine

	listeners []net.Listener
	httpSrv   *http.Server
	httpAddr  string
	conns     sync.WaitGroup
	serving   sync.WaitGroup
}

// newDaemon builds the runtime, applies the -track binding, and wires the
// ingest engine. Listeners are not opened until start.
func newDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.Shards < 1 {
		return nil, errors.New("shards must be at least 1")
	}
	// The daemon's program carries every measure — the frequency family plus
	// entropy and heavy hitters — so /bind can move between them at runtime
	// without rebuilding; it is the "entropy-hh" catalog row, which keeps it
	// under the stage budget. -flow-table grows the program with the flow
	// table, an explicitly chosen larger sizing.
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	if cfg.FlowTable > 0 {
		opts.FlowTable = true
		opts.FlowTableSize = cfg.FlowTable
	}
	if err := opts.Check(); err != nil {
		return nil, err
	}
	lib := stat4p4.Build(opts)
	sr, err := stat4p4.NewShardedRuntime(lib, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.Track != "none" { // "none" starts unbound; /bind takes it from there
		if _, err := stat4p4.BindTrack(sr, cfg.Track, cfg.trackParams()); err != nil {
			sr.Close()
			return nil, err
		}
	}
	e := ingest.New(sr, ingest.Config{
		RingCap:     cfg.RingCap,
		SlabBlocks:  cfg.SlabBlocks,
		BlockSize:   cfg.BlockSize,
		BatchFrames: cfg.Batch,
	})
	return &daemon{cfg: cfg, rt: sr, engine: e}, nil
}

// trackParams spells the -track flags as track parameters. Flag values are
// taken as given (the flags carry the defaults); what no flag sets comes from
// TrackDefaults.
func (cfg daemonConfig) trackParams() stat4p4.TrackParams {
	p := stat4p4.TrackDefaults
	p.IntervalShift, p.Window, p.K = cfg.Shift, cfg.Window, cfg.K
	p.Base, p.H0Bits, p.CheckEvery = cfg.BasePrefix, cfg.H0Bits, cfg.CheckEvery
	p.EpochShift, p.TTL = cfg.FlowEpochShift, cfg.FlowTTL
	p.SampleShift = stat4p4.FlagSampleShift(cfg.Track, cfg.SampleShift)
	return p
}

// start opens the listeners and plays the startup capture. It returns once
// everything is accepting; serving continues on background goroutines.
func (d *daemon) start() error {
	if d.cfg.Listen != "" {
		ln, err := net.Listen("tcp", d.cfg.Listen)
		if err != nil {
			return err
		}
		d.listeners = append(d.listeners, ln)
		d.serving.Add(1)
		go d.acceptLoop(ln)
		log.Printf("frame streams on tcp %s", ln.Addr())
	}
	if d.cfg.Unix != "" {
		_ = os.Remove(d.cfg.Unix)
		ln, err := net.Listen("unix", d.cfg.Unix)
		if err != nil {
			return err
		}
		d.listeners = append(d.listeners, ln)
		d.serving.Add(1)
		go d.acceptLoop(ln)
		log.Printf("frame streams on unix %s", d.cfg.Unix)
	}
	if d.cfg.HTTP != "" {
		ln, err := net.Listen("tcp", d.cfg.HTTP)
		if err != nil {
			return err
		}
		d.httpSrv = &http.Server{Handler: d.mux()}
		d.httpAddr = ln.Addr().String()
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			if err := d.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("control plane on http://%s", ln.Addr())
	}
	if d.cfg.Pcap != "" {
		n, err := d.engine.PlaySource(d.cfg.Pcap, 1, true)
		if err != nil {
			return fmt.Errorf("pcap source: %w", err)
		}
		log.Printf("played %d frames from %s", n, d.cfg.Pcap)
	}
	return nil
}

// acceptLoop serves one listener until it is closed by shutdown.
func (d *daemon) acceptLoop(ln net.Listener) {
	defer d.serving.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.conns.Add(1)
		go func() {
			defer d.conns.Done()
			defer conn.Close()
			n, err := d.engine.ServeConn(conn)
			if err != nil {
				log.Printf("stream %s: %v after %d records", conn.RemoteAddr(), err, n)
			}
		}()
	}
}

// shutdown is the drain sequence: stop accepting, wait for in-flight
// streams, stop the engine (drains the ring), then close the runtime.
func (d *daemon) shutdown() {
	for _, ln := range d.listeners {
		ln.Close()
	}
	if d.httpSrv != nil {
		d.httpSrv.Shutdown(context.Background())
	}
	d.conns.Wait()
	d.serving.Wait()
	d.engine.Stop()
	d.rt.Close()
	if d.cfg.Unix != "" {
		_ = os.Remove(d.cfg.Unix)
	}
}

// mux routes the control plane. Every handler reads through Engine.Do, so
// nothing here ever races a batch in flight.
func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := d.engine.WriteProm(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := d.engine.WriteJSON(w); err != nil {
			log.Printf("metrics.json: %v", err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.engine.Stats())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.engine.MergedSnapshot())
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		recent, total := d.engine.Alerts()
		out := struct {
			Total  uint64           `json:"total"`
			Recent []map[string]any `json:"recent"`
		}{Total: total}
		for _, dg := range recent {
			a, err := stat4p4.DecodeDigest(dg)
			if err != nil {
				out.Recent = append(out.Recent, map[string]any{"kind": "undecodable", "error": err.Error()})
				continue
			}
			rec := map[string]any{"kind": a.Kind, "slot": a.Slot, "ts_ns": a.TsNs}
			for i, name := range a.Fields {
				rec[name] = a.Values[i]
			}
			out.Recent = append(out.Recent, rec)
		}
		writeJSON(w, out)
	})
	for _, v := range stat4p4.Views() {
		mux.HandleFunc("/"+v.Name(), d.serveView(v))
	}
	mux.HandleFunc("/bind", d.handleBind)
	return mux
}

// serveView answers a view row at /<name>: the slot's merged read, between batches.
func (d *daemon) serveView(v stat4p4.AnyView) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		slot, err := intParam(r, "slot", 0)
		n, nerr := intParam(r, "n", 0)
		var body any
		if err = errors.Join(err, nerr); err == nil {
			d.engine.Do(func() { body, err = v.Body(d.engine.Runtime(), slot, n) })
		}
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, body)
	}
}

// bindRequest is the /bind POST body: a track name (or unbind / reset) plus
// the track's parameters.
type bindRequest struct {
	Mode string `json:"mode"` // one of stat4p4.Tracks() | unbind | reset
	stat4p4.TrackParams
	Entry uint64 `json:"entry"` // unbind target
}

// handleBind applies one control-plane table update on the consumer, exactly
// like a controller reprogramming a running switch.
func (d *daemon) handleBind(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req bindRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	var id p4.EntryID
	var err error
	d.engine.Do(func() {
		sr := d.engine.Runtime()
		switch req.Mode {
		case "unbind":
			err = sr.Unbind(req.Stage, p4.EntryID(req.Entry))
		case "reset":
			err = sr.ResetSlot(req.Slot)
		default:
			id, err = stat4p4.BindTrack(sr, req.Mode, req.TrackParams.WithDefaults())
		}
	})
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]any{"entry": uint64(id)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// httpErr answers with a JSON error body — every endpoint speaks JSON, so
// clients never need a second parser for the failure path.
func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); encErr != nil {
		log.Printf("encode error body: %v", encErr)
	}
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return v, nil
}

// pushPcap is the client half: stream a capture to a running daemon over the
// frame-stream protocol. addr is host:port, or a filesystem path for unix
// sockets.
func pushPcap(path, addr string) error {
	if addr == "" {
		return errors.New("-push requires -connect")
	}
	network := "tcp"
	if _, err := os.Stat(addr); err == nil {
		network = "unix"
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := packet.NewPcapReader(f)
	// Buffered, so a record's header and frame share one write and records
	// coalesce: the daemon flushes a slab block whenever its input drains.
	w := bufio.NewWriter(conn)
	var n uint64
	for {
		ts, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := ingest.WriteRecord(w, ts, 1, frame); err != nil {
			return err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		return err
	}
	log.Printf("pushed %d frames to %s", n, addr)
	return nil
}
