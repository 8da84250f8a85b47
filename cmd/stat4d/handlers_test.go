package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"stat4/internal/packet"
	"stat4/internal/telemetry"
)

// testDaemon boots a listener-free daemon whose mux is driven directly with
// httptest, so handler behavior is pinned without sockets.
func testDaemon(t *testing.T, track string) *daemon {
	t.Helper()
	d, err := newDaemon(daemonConfig{
		Shards: 2, Track: track, BasePrefix: "10.0.0.0",
		H0Bits: 0, CheckEvery: 1024, SampleShift: 2,
		RingCap: 64, SlabBlocks: 64, BlockSize: 32 << 10, Batch: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	return d
}

// decodeError requires a JSON {"error": ...} body — the control plane speaks
// JSON on the failure path too.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Error == "" {
		t.Fatalf("error body carries no message: %s", rec.Body.String())
	}
	return body.Error
}

// TestBindRejectsNonPost pins the 405 path: /bind is a mutation, reads must
// not slip through, and the refusal is a JSON error like every other answer.
func TestBindRejectsNonPost(t *testing.T) {
	d := testDaemon(t, "none")
	mux := d.mux()
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, "/bind", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s /bind = %d, want 405", method, rec.Code)
		}
		if msg := decodeError(t, rec); !strings.Contains(msg, "POST") {
			t.Fatalf("%s /bind error %q does not name the allowed method", method, msg)
		}
	}
}

// TestBindRejectsMalformedJSON pins the 400 path: a broken body is a clean
// JSON error, not a daemon upset, and no binding is applied.
func TestBindRejectsMalformedJSON(t *testing.T) {
	d := testDaemon(t, "none")
	mux := d.mux()
	for _, body := range []string{"{not json", `"a string"`, `{"mode": 7}`} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(body))
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /bind %q = %d, want 400", body, rec.Code)
		}
		decodeError(t, rec)
	}
	// An unknown mode inside well-formed JSON is also a JSON 400.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(`{"mode":"nope"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown mode = %d, want 400", rec.Code)
	}
	if msg := decodeError(t, rec); !strings.Contains(msg, "nope") {
		t.Fatalf("error %q does not name the bad mode", msg)
	}
	// So is a base prefix with trailing junk: it is not an address.
	for _, base := range []string{"10.0.0.1junk", "1.2.3.4.5", "10.0.0.0/+8"} {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"mode":"dst24","base":%q}`, base)
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /bind %s = %d, want 400", body, rec.Code)
		}
		if msg := decodeError(t, rec); !strings.Contains(msg, base) {
			t.Fatalf("error %q does not name the bad prefix", msg)
		}
	}
}

// TestEntropyEndpoint binds the entropy track, applies traffic through the
// engine, and reads the merged fixed-point entropy over HTTP.
func TestEntropyEndpoint(t *testing.T) {
	d := testDaemon(t, "entropy")
	mux := d.mux()

	// Bad slot parameter is a JSON 400.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/entropy?slot=notanumber", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad slot = %d, want 400", rec.Code)
	}
	decodeError(t, rec)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/entropy?slot=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/entropy = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Slot  int     `json:"slot"`
		Total uint64  `json:"total"`
		Bits  float64 `json:"bits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/entropy body: %v\n%s", err, rec.Body.String())
	}
	if out.Total != 0 || out.Bits != 0 {
		t.Fatalf("fresh daemon reports entropy %+v", out)
	}
}

// TestHeavyHittersEndpoint reads the merged candidate table over HTTP.
func TestHeavyHittersEndpoint(t *testing.T) {
	d := testDaemon(t, "hh")
	mux := d.mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/heavyhitters?slot=99", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range slot = %d, want 400", rec.Code)
	}
	decodeError(t, rec)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/heavyhitters?slot=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/heavyhitters = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Slot     int    `json:"slot"`
		Rejected uint64 `json:"rejected"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/heavyhitters body: %v\n%s", err, rec.Body.String())
	}
}

// TestBindEntropyAndHHModes drives the new /bind modes end to end on the
// mux: rebind to entropy on slot 0 and heavy hitters on slot 1, then read
// both endpoints back.
func TestBindEntropyAndHHModes(t *testing.T) {
	d := testDaemon(t, "none")
	mux := d.mux()
	for _, body := range []string{
		`{"mode":"entropy","slot":0,"h0_bits":4,"check_every":1024}`,
		`{"mode":"hh","slot":1,"sample_shift":4}`,
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /bind %s = %d: %s", body, rec.Code, rec.Body.String())
		}
	}
	for _, url := range []string{"/entropy?slot=0", "/heavyhitters?slot=1"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
		}
	}
	// A non-power-of-two cadence surfaces the runtime's validation as a 400.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind",
		strings.NewReader(`{"mode":"entropy","slot":0,"check_every":3}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("check_every=3 accepted: %d", rec.Code)
	}
	if msg := decodeError(t, rec); !strings.Contains(msg, "power of two") {
		t.Fatalf("error %q does not explain the cadence constraint", msg)
	}
}

// flowDaemon boots a daemon whose program carries the flow table, bound to
// per-source flows with fast-expiring epochs.
func flowDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := newDaemon(daemonConfig{
		Shards: 2, Track: "flow", FlowTable: 64,
		FlowEpochShift: 10, FlowTTL: 2,
		RingCap: 64, SlabBlocks: 64, BlockSize: 32 << 10, Batch: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.shutdown)
	return d
}

// playFlows writes a capture of distinct per-source flows and plays it
// through the ingest engine, so the flow table holds real state.
func playFlows(t *testing.T, d *daemon, count int) {
	t.Helper()
	playTo(t, d, count, func(int) packet.IP4 { return packet.ParseIP4(10, 0, 0, 1) })
}

// playTo plays count frames from distinct sources to the destinations dst
// picks, and waits until the engine has consumed them.
func playTo(t *testing.T, d *daemon, count int, dst func(i int) packet.IP4) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flows.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := packet.NewPcapWriter(f)
	for i := 0; i < count; i++ {
		src := packet.ParseIP4(198, 18, byte(i>>8), byte(i))
		fr := packet.NewUDPFrame(src, dst(i), uint16(40000+i%1024), 80, 64)
		if err := w.WriteFrame(uint64(i+1)*500, fr.Serialize()); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	before := d.engine.Frames()
	n, err := d.engine.PlaySource(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// PlaySource returns once the frames are pushed, not consumed, and the
	// engine serves Do (every HTTP read) ahead of pushed batches.
	deadline := time.Now().Add(5 * time.Second)
	for d.engine.Frames() < before+n {
		if time.Now().After(deadline) {
			t.Fatalf("engine consumed %d of %d played frames", d.engine.Frames()-before, n)
		}
		runtime.Gosched()
	}
}

// flowsBody is the /flows response shape the handler promises.
type flowsBody struct {
	Slot       int     `json:"slot"`
	Capacity   uint64  `json:"capacity"`
	Occupied   uint64  `json:"occupied"`
	LoadFactor float64 `json:"load_factor"`
	Admitted   uint64  `json:"admitted"`
	Evicted    uint64  `json:"evicted"`
	Rejected   uint64  `json:"rejected"`
	Shed       uint64  `json:"shed"`
	Flows      []struct {
		Key   string `json:"key"`
		Raw   uint64 `json:"raw_key"`
		Count uint64 `json:"count"`
		Stamp uint64 `json:"stamp"`
	} `json:"flows"`
}

// TestFlowsEndpoint drives traffic through a flow-bound daemon and reads the
// occupancy ledger and merged flow list back over HTTP.
func TestFlowsEndpoint(t *testing.T) {
	d := flowDaemon(t)
	mux := d.mux()

	// Bad slot parameter is a JSON 400, as is an out-of-range slot.
	for _, url := range []string{"/flows?slot=notanumber", "/flows?slot=99"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", url, rec.Code)
		}
		decodeError(t, rec)
	}

	playFlows(t, d, 300)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/flows?slot=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/flows = %d: %s", rec.Code, rec.Body.String())
	}
	var out flowsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/flows body: %v\n%s", err, rec.Body.String())
	}
	if out.Capacity != 128 { // 64 buckets per slot across 2 shards
		t.Fatalf("capacity %d, want 128", out.Capacity)
	}
	if out.Occupied == 0 || out.Admitted == 0 {
		t.Fatalf("no flows landed: %+v", out)
	}
	if out.Occupied != out.Admitted-out.Evicted {
		t.Fatalf("ledger broken: occupied %d != admitted %d - evicted %d",
			out.Occupied, out.Admitted, out.Evicted)
	}
	if out.LoadFactor <= 0 || out.LoadFactor > 1 {
		t.Fatalf("load factor %f out of (0, 1]", out.LoadFactor)
	}
	if len(out.Flows) == 0 || uint64(len(out.Flows)) < out.Occupied/2 {
		t.Fatalf("merged flow list has %d entries for occupancy %d", len(out.Flows), out.Occupied)
	}
	for _, fl := range out.Flows {
		if fl.Count == 0 || fl.Stamp == 0 {
			t.Fatalf("flow %q carries empty count/stamp: %+v", fl.Key, fl)
		}
	}

	// n truncates the list to the heaviest entries.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/flows?slot=0&n=3", nil))
	var top flowsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Flows) != 3 {
		t.Fatalf("n=3 returned %d flows", len(top.Flows))
	}
}

// TestMomentsEndpointFlowSlot: a flow slot's merged moments come from the
// key-merged flow counts, not the counter array flow kinds never write.
func TestMomentsEndpointFlowSlot(t *testing.T) {
	d := flowDaemon(t)
	playFlows(t, d, 300)
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/moments?slot=0", nil))
	var m struct{ N, Xsum uint64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/moments = %d: %v\n%s", rec.Code, err, rec.Body.String())
	}
	if m.N == 0 || m.Xsum == 0 {
		t.Fatalf("flow slot's merged moments read zero: %+v", m)
	}
}

// TestFlowsEndpointDisabled pins the failure mode of a daemon built without
// the flow plane: /flows is a clean JSON 400, not a panic or empty body.
func TestFlowsEndpointDisabled(t *testing.T) {
	d := testDaemon(t, "none")
	mux := d.mux()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/flows", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("/flows without flow plane = %d, want 400", rec.Code)
	}
	if msg := decodeError(t, rec); !strings.Contains(msg, "FlowTable") {
		t.Fatalf("error %q does not name the missing option", msg)
	}
}

// TestFlowMetricsExposition checks the flow-table counters ride the standard
// telemetry registry: present in the scrape, and the exposition stays valid.
func TestFlowMetricsExposition(t *testing.T) {
	d := flowDaemon(t)
	playFlows(t, d, 300)

	var sb strings.Builder
	if err := d.engine.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if _, err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid with flow metrics: %v", err)
	}
	for _, name := range []string{
		"flow_occupied", "flow_admitted_total", "flow_evicted_total",
		"flow_rejected_total", "flow_shed_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("scrape is missing %s:\n%s", name, body)
		}
	}
	// The daemon has no simulator, node or controller: the serial
	// pipeline's series for them would always read zero, so none is served.
	for _, name := range []string{
		"frame_latency_ns", "ctrl_latency_ns", "digest_queue_depth",
		"node_dropped_digests", "node_unrouted_frames",
		"event_queue_depth", "controller_phase",
	} {
		if strings.Contains(body, name) {
			t.Fatalf("scrape serves %s, which nothing in the daemon writes:\n%s", name, body)
		}
	}

	// A daemon without the flow plane must not emit flow series.
	plain := testDaemon(t, "none")
	sb.Reset()
	if err := plain.engine.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "flow_occupied") {
		t.Fatal("flow metrics registered on a daemon without the flow plane")
	}
}

// TestAlertsServesEveryDigestKind: /alerts decodes each digest by its own
// layout. Heavy-hitter digests (three values) used to fail the five-value
// length check and vanish from "recent" while still counted in "total", and
// entropy digests were served under the anomaly digest's field names.
func TestAlertsServesEveryDigestKind(t *testing.T) {
	one := func(int) packet.IP4 { return packet.ParseIP4(10, 0, 0, 1) }
	for _, tc := range []struct {
		cfg    daemonConfig
		dst    func(i int) packet.IP4
		kind   string
		fields []string
	}{
		{daemonConfig{Track: "hh", SampleShift: 1}, one, "heavy-hitter", []string{"key"}},
		{daemonConfig{Track: "entropy", BasePrefix: "10.0.0.0", H0Bits: 1, CheckEvery: 16}, one,
			"entropy", []string{"total", "scaled_entropy", "scaled_threshold"}},
		// A trickle over 32 subnets, then everything to one: the imbalance
		// check fires with the anomaly digest's long-standing keys.
		{daemonConfig{Track: "dst24", BasePrefix: "10.0.0.0", K: 1}, func(i int) packet.IP4 {
			if i < 256 {
				return packet.ParseIP4(10, 0, byte(i%32), 1)
			}
			return packet.ParseIP4(10, 0, 40, 1)
		}, "anomaly", []string{"value", "n_times_x", "threshold"}},
	} {
		tc.cfg.Shards = 2
		tc.cfg.RingCap, tc.cfg.SlabBlocks, tc.cfg.BlockSize, tc.cfg.Batch = 64, 64, 32<<10, 64
		d, err := newDaemon(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		playTo(t, d, 2048, tc.dst)
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
		d.shutdown()
		var out struct {
			Total  uint64           `json:"total"`
			Recent []map[string]any `json:"recent"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("%s: /alerts body: %v", tc.kind, err)
		}
		want := out.Total
		if want > 128 { // ingest.Config.AlertKeep default
			want = 128
		}
		if out.Total == 0 || uint64(len(out.Recent)) != want {
			t.Fatalf("%s: total %d, %d recent, want %d", tc.kind, out.Total, len(out.Recent), want)
		}
		for _, a := range out.Recent {
			if a["kind"] != tc.kind {
				t.Fatalf("%s daemon served a %q alert: %v", tc.kind, a["kind"], a)
			}
			for _, f := range append([]string{"slot", "ts_ns"}, tc.fields...) {
				if _, ok := a[f]; !ok {
					t.Fatalf("%s alert lacks %q: %v", tc.kind, f, a)
				}
			}
			if len(a) != 3+len(tc.fields) {
				t.Fatalf("%s alert carries stray fields: %v", tc.kind, a)
			}
		}
	}
}
