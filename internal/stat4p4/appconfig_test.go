package stat4p4

import (
	"strings"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

const caseStudyJSON = `{
  "options": {"Slots": 2, "Size": 256, "Stages": 2},
  "routes": [
    {"prefix": "10.0.0.0/8", "port": 2},
    {"prefix": "192.0.2.66/32", "drop": true}
  ],
  "bindings": [
    {
      "kind": "window", "stage": 0, "slot": 0,
      "match": {"dst_prefix": "10.0.0.0/8"},
      "interval_shift": 23, "capacity": 100, "k": 2
    },
    {
      "kind": "freq-dst", "stage": 1, "slot": 1,
      "match": {"dst_prefix": "10.0.0.0/16"},
      "shift": 8, "base": 655360, "size": 256, "k": 2
    }
  ]
}`

// install builds cfg's library, instantiates a runtime of it and installs
// cfg there, as stat4-replay does with its -config.
func install(cfg *AppConfig) (*Runtime, []p4.EntryID, error) {
	rt, err := NewRuntime(Build(cfg.Options))
	if err != nil {
		return nil, nil, err
	}
	ids, err := cfg.Install(rt)
	return rt, ids, err
}

func TestAppConfigApply(t *testing.T) {
	cfg, err := LoadAppConfig(strings.NewReader(caseStudyJSON))
	if err != nil {
		t.Fatal(err)
	}
	rt, ids, err := install(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	sw := rt.Sharded()

	// Routes work, including the blackhole.
	out := sw.ProcessFrame(0, 1, packet.NewUDPFrame(1, packet.ParseIP4(10, 1, 1, 1), 5, 80, 10).Serialize())
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("route: %+v", out)
	}
	if out := sw.ProcessFrame(1, 1, packet.NewUDPFrame(1, packet.ParseIP4(192, 0, 2, 66), 5, 80, 10).Serialize()); out != nil {
		t.Fatal("blackhole route not applied")
	}

	// Both bindings are live: the window accumulates and the per-/24
	// distribution counts.
	for i := 0; i < 10; i++ {
		sw.ProcessFrame(uint64(i), 1, packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 3, 9), 5, 80, 10).Serialize())
	}
	counters := mustRead(t, rt, Counters, 1)
	if counters[3] != 10 {
		t.Fatalf("freq-dst binding: counters = %v", counters[:6])
	}
	curReg, _ := rt.Switch().Register(RegCur)
	if cur, _ := curReg.Read(0); cur != 11 { // 10 + the first routed packet
		t.Fatalf("window binding: cur = %d", cur)
	}
	// The defaulted percentile weights are the median.
	if cfg.Bindings[1].PA != 1 || cfg.Bindings[1].PB != 1 {
		t.Fatal("percentile weights not defaulted")
	}
}

func TestAppConfigAllKinds(t *testing.T) {
	const allKinds = `{
  "options": {"Slots": 9, "Size": 256, "Stages": 2, "FlowTable": true, "FlowTableSize": 64},
  "bindings": [
    {"kind": "window", "stage": 0, "slot": 0, "match": {"ipv4": true}, "interval_shift": 20, "capacity": 16, "k": 2},
    {"kind": "window-bytes", "stage": 0, "slot": 1, "match": {"syn_only": true, "ipv4": true, "priority": 5}, "interval_shift": 20, "capacity": 16, "k": 2},
    {"kind": "freq-dport", "stage": 1, "slot": 2, "match": {"ipv4": true}, "shift": 0, "size": 256},
    {"kind": "freq-proto", "stage": 1, "slot": 3, "match": {"ipv4": true, "priority": 1}},
    {"kind": "freq-len", "stage": 1, "slot": 4, "match": {"ipv4": true, "priority": 2}, "shift": 6},
    {"kind": "freq-echo", "stage": 0, "slot": 5, "match": {"echo": true, "priority": 9}, "base": 32768, "size": 256},
    {"kind": "flow-dst", "stage": 0, "slot": 6, "match": {"ipv4": true, "priority": 6}, "shift": 8, "epoch_shift": 23, "ttl": 4, "k": 2},
    {"kind": "flow-src", "stage": 0, "slot": 7, "match": {"ipv4": true, "priority": 7}, "epoch_shift": 20, "ttl": 1, "sample_shift": 3},
    {"kind": "flow-pair", "stage": 1, "slot": 8, "match": {"ipv4": true, "priority": 8}, "epoch_shift": 23, "ttl": 2}
  ]
}`
	cfg, err := LoadAppConfig(strings.NewReader(allKinds))
	if err != nil {
		t.Fatal(err)
	}
	if _, ids, err := install(cfg); err != nil || len(ids) != 9 {
		t.Fatalf("install: %v (ids %v)", err, ids)
	}
}

func TestAppConfigErrors(t *testing.T) {
	cases := map[string]string{
		"no bindings":   `{"options": {"Slots": 1, "Size": 8, "Stages": 1}, "bindings": []}`,
		"unknown field": `{"bindingz": []}`,
		"not json":      `{`,
	}
	for name, js := range cases {
		if _, err := LoadAppConfig(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	applyCases := map[string]string{
		"unknown kind": `{"options": {"Slots": 1, "Size": 8, "Stages": 1},
			"bindings": [{"kind": "ghost", "stage": 0, "slot": 0, "match": {}}]}`,
		"bad prefix": `{"options": {"Slots": 1, "Size": 8, "Stages": 1},
			"bindings": [{"kind": "window", "stage": 0, "slot": 0,
			"match": {"dst_prefix": "not-a-prefix"}, "interval_shift": 20, "capacity": 4, "k": 2}]}`,
		"bad route": `{"options": {"Slots": 1, "Size": 8, "Stages": 1},
			"routes": [{"prefix": "bogus", "port": 1}],
			"bindings": [{"kind": "window", "stage": 0, "slot": 0, "match": {},
			"interval_shift": 20, "capacity": 4, "k": 2}]}`,
		"bad slot": `{"options": {"Slots": 1, "Size": 8, "Stages": 1},
			"bindings": [{"kind": "window", "stage": 0, "slot": 5, "match": {},
			"interval_shift": 20, "capacity": 4, "k": 2}]}`,
	}
	for name, js := range applyCases {
		cfg, err := LoadAppConfig(strings.NewReader(js))
		if err != nil {
			t.Errorf("%s: load failed early: %v", name, err)
			continue
		}
		if _, _, err := install(cfg); err == nil {
			t.Errorf("%s: applied", name)
		}
	}
}
