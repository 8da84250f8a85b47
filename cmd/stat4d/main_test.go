package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"stat4/internal/ingest"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

// smokeFrames writes a small capture spread over /24 buckets.
func smokeFrames(t *testing.T, path string, count int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)
	for i := 0; i < count; i++ {
		dst := packet.ParseIP4(10, 0, byte(i%5), byte(i%40))
		fr := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, uint16(1000+i%9), 80, i%32)
		if err := w.WriteFrame(uint64(i+1)*1000, fr.Serialize()); err != nil {
			t.Fatal(err)
		}
	}
}

// freePort reserves an ephemeral TCP address for a listener flag.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", url, resp.Status, buf.String())
		}
		return buf.Bytes()
	}
	t.Fatalf("GET %s never answered: %v", url, lastErr)
	return nil
}

// TestDaemonSmoke is the stat4d end-to-end: boot a daemon in-process with a
// pcap source plus TCP and unix frame listeners, stream frames over both, hit
// every control-plane endpoint, rebind a statistic at runtime, then drain.
// `make stat4d-smoke` runs exactly this.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "seed.pcap")
	smokeFrames(t, pcapPath, 400)

	sock := filepath.Join(dir, "stat4d.sock")
	cfg := daemonConfig{
		Shards:     4,
		Listen:     "127.0.0.1:0",
		Unix:       sock,
		HTTP:       "127.0.0.1:0",
		Pcap:       pcapPath,
		Track:      "dst24",
		K:          0,
		BasePrefix: "10.0.0.0",
		RingCap:    64,
		SlabBlocks: 64,
		BlockSize:  32 << 10,
		Batch:      64,
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	tcpAddr := d.listeners[0].Addr().String()
	base := "http://" + d.httpAddr

	// The pcap source is lossless and played during start; the consumer
	// drains it asynchronously.
	seedDeadline := time.Now().Add(5 * time.Second)
	for d.engine.Frames() < 400 {
		if time.Now().After(seedDeadline) {
			t.Fatalf("pcap source delivered %d frames, want 400", d.engine.Frames())
		}
		runtime.Gosched()
	}

	// Stream 200 records over TCP and 100 over the unix socket, buffered
	// like stat4d -push: the daemon flushes a slab block whenever its input
	// drains, so unbuffered record-at-a-time writes can cost a block each.
	send := func(network, addr string, count int, port uint16) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		w := bufio.NewWriter(conn)
		for i := 0; i < count; i++ {
			dst := packet.ParseIP4(10, 0, byte(i%5), 7)
			fr := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 9), dst, 5, 80, 16).Serialize()
			if err := ingest.WriteRecord(w, uint64(1e6+i), port, fr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send("tcp", tcpAddr, 200, 2)
	send("unix", sock, 100, 3)
	want := uint64(400 + 200 + 100)
	deadline := time.Now().Add(5 * time.Second)
	for d.engine.Frames() < want {
		if time.Now().After(deadline) {
			_, shed := d.engine.Shed()
			t.Fatalf("daemon consumed %d frames and shed %d, want %d consumed", d.engine.Frames(), shed, want)
		}
		runtime.Gosched()
	}

	// Control plane: health, metrics, stats, snapshot, moments, counters.
	if got := string(httpGet(t, base+"/healthz")); got != "ok\n" {
		t.Fatalf("healthz = %q", got)
	}
	metrics := string(httpGet(t, base+"/metrics"))
	for _, series := range []string{"stat4d_ingest_frames 700", "stat4d_pkts_in 700", "stat4d_ingest_ring_depth"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, metrics)
		}
	}
	var stats ingest.Stats
	if err := json.Unmarshal(httpGet(t, base+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Frames != want || stats.ShedFrames != 0 {
		t.Fatalf("stats = %+v, want %d frames, 0 shed", stats, want)
	}
	if len(stats.PerShard) != 4 {
		t.Fatalf("stats reports %d shards, want 4", len(stats.PerShard))
	}
	var moments struct {
		N uint64 `json:"N"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/moments?slot=0"), &moments); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Registers map[string][]uint64 `json:"Registers"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/snapshot"), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Registers) == 0 {
		t.Fatal("/snapshot returned no registers")
	}
	var counters struct {
		Cells []uint64 `json:"cells"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/counters?slot=0&n=8"), &counters); err != nil {
		t.Fatal(err)
	}
	if len(counters.Cells) != 8 {
		t.Fatalf("/counters returned %d cells, want 8", len(counters.Cells))
	}
	var total uint64
	for _, c := range counters.Cells {
		total += c
	}
	if total == 0 {
		t.Fatal("/counters drill-down saw no traffic in the first 8 buckets")
	}

	// Runtime rebinding: reset the slot, rebind per-proto, send more traffic.
	for _, body := range []string{
		`{"mode":"reset","slot":0}`,
		`{"mode":"proto","stage":0,"slot":0,"size":256}`,
	} {
		resp, err := http.Post(base+"/bind", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("POST /bind %s: %s: %s", body, resp.Status, buf.String())
		}
		resp.Body.Close()
	}
	// An invalid bind is a clean 400, not a daemon upset.
	resp, err := http.Post(base+"/bind", "application/json", strings.NewReader(`{"mode":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bind mode returned %s, want 400", resp.Status)
	}

	send("tcp", tcpAddr, 50, 2)
	want += 50
	deadline = time.Now().Add(5 * time.Second)
	for d.engine.Frames() < want {
		if time.Now().After(deadline) {
			t.Fatalf("post-rebind: consumed %d frames, want %d", d.engine.Frames(), want)
		}
		runtime.Gosched()
	}
	var alerts struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/alerts"), &alerts); err != nil {
		t.Fatal(err)
	}

	// Drain: shutdown must leave zero shed frames and a quiesced engine.
	d.shutdown()
	st := d.engine.Stats()
	if st.Frames != want || st.ShedFrames != 0 {
		t.Fatalf("after drain: %d frames (%d shed), want %d/0", st.Frames, st.ShedFrames, want)
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("unix socket not removed: %v", err)
	}
}

// TestDaemonBadConfig pins construction errors.
func TestDaemonBadConfig(t *testing.T) {
	if _, err := newDaemon(daemonConfig{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := newDaemon(daemonConfig{Shards: 1, Track: "bogus"}); err == nil {
		t.Fatal("bogus track accepted")
	}
	// A flow table the program cannot have fails with the Options check's
	// own message.
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 3}
	want := opts.Check()
	if _, err := newDaemon(daemonConfig{Shards: 1, Track: "none", FlowTable: 3}); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("flow-table 3: %v, want %v", err, want)
	}
	if _, err := newDaemon(daemonConfig{Shards: 1, Track: "entropy", H0Bits: math.Inf(1)}); err == nil {
		t.Fatal("infinite entropy threshold accepted")
	}
}

// TestPushClientRoundTrip exercises the -push client path against a live
// daemon listener.
func TestPushClientRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "push.pcap")
	smokeFrames(t, pcapPath, 120)

	d, err := newDaemon(daemonConfig{
		Shards: 2, Listen: "127.0.0.1:0", Track: "dst24", BasePrefix: "10.0.0.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	if err := pushPcap(pcapPath, d.listeners[0].Addr().String()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.engine.Frames() < 120 {
		if time.Now().After(deadline) {
			t.Fatalf("push delivered %d frames, want 120", d.engine.Frames())
		}
		runtime.Gosched()
	}
	if err := pushPcap(pcapPath, ""); err == nil {
		t.Fatal("push without -connect accepted")
	}
}

// TestTrackFlagsInstallTheSameEntries pins what -track installs under the
// default flags to literal entries: the action and argument vector each of
// the seven tracks has always put into bind0, on every shard. The flow
// track's admission coin stays 0 — -sample-shift belongs to hh.
func TestTrackFlagsInstallTheSameEntries(t *testing.T) {
	const base = 10 << 16 // 10.0.0.0 >> 8
	golden := map[string]struct {
		action string
		args   []uint64
	}{
		"window":  {"bind_window", []uint64{0, 0, 23, 100, 0}},
		"dst24":   {"bind_freq_dst", []uint64{0, 0, 8, base, 256, 1, 1, 0}},
		"proto":   {"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 0}},
		"len":     {"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 0}},
		"entropy": {"bind_ent_dst", []uint64{0, 0, 8, base, 256, 0, 1023}},
		"hh":      {"bind_hh_src", []uint64{0, 0, 0, 63}},
		"flow":    {"bind_flow_src", []uint64{0, 0, 0, 23, 4, 0, 0}},
	}
	if got := stat4p4.Tracks(); len(got) != len(golden) {
		t.Fatalf("tracks %v, golden table has %d", got, len(golden))
	}
	for track, want := range golden {
		d, err := newDaemon(daemonConfig{
			Shards: 2, Track: track, Shift: 23, Window: 100, BasePrefix: "10.0.0.0",
			CheckEvery: 1024, SampleShift: 6, FlowTable: 64, FlowEpochShift: 23, FlowTTL: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", track, err)
		}
		for s := 0; s < d.rt.NumShards(); s++ {
			es, err := d.rt.Sharded().Shard(s).TableEntries("bind0")
			if err != nil || len(es) != 1 {
				t.Fatalf("%s shard %d: %d entries, err %v", track, s, len(es), err)
			}
			if es[0].Action != want.action || !reflect.DeepEqual(es[0].Args, want.args) {
				t.Errorf("%s shard %d: installed %s%v, want %s%v", track, s, es[0].Action, es[0].Args, want.action, want.args)
			}
		}
		d.shutdown()
	}
}

// The daemon's program without -flow-table is the "entropy-hh" catalog row,
// the sizing the stage-budget and merge-law gates run over.
func TestDaemonProgramIsCatalogRow(t *testing.T) {
	d, err := newDaemon(daemonConfig{Shards: 1, Track: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	for _, rp := range stat4p4.Registered() {
		if rp.Name == "entropy-hh" {
			if err := rp.Opts.Check(); err != nil || d.rt.Library().Opts != rp.Opts {
				t.Fatalf("stat4d builds %+v, the entropy-hh row is %+v (%v)", d.rt.Library().Opts, rp.Opts, err)
			}
			return
		}
	}
	t.Fatal("no entropy-hh row in the catalog")
}
