package stat4p4

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"stat4/internal/p4"
)

// emitted is everything the goldens pin about one built configuration.
type emitted struct {
	format uint64 // FNV-1a of p4.Format(lib.Prog)
	p416   uint64 // FNV-1a of EmitP416(lib)
	// Placement on pisa-3pass: stages used, total register bytes and the
	// longest def-use chain.
	stages, regBytes, chain int
	// actions is the bindable-action order every bind table carries.
	actions string
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func emit(t *testing.T, opts Options) emitted {
	t.Helper()
	lib := Build(opts)
	rep, err := p4.AllocateStages(lib.Prog, p4.DefaultTargetModel())
	if err != nil {
		t.Fatal(err)
	}
	var actions string
	for _, tbl := range lib.Prog.Tables {
		if tbl.Name == FwdTable {
			continue
		}
		got := strings.Join(tbl.ActionNames, " ")
		if actions != "" && got != actions {
			t.Errorf("%s lists %q, the stage before it %q", tbl.Name, got, actions)
		}
		actions = got
	}
	return emitted{
		format: fnv64(p4.Format(lib.Prog)), p416: fnv64(EmitP416(lib)),
		stages: rep.StagesUsed, regBytes: rep.RegisterBytes, chain: rep.LongestDepChain,
		actions: actions,
	}
}

func (e emitted) String() string {
	return fmt.Sprintf("{%#x, %#x, %d, %d, %d, %q}", e.format, e.p416, e.stages, e.regBytes, e.chain, e.actions)
}

// The bind tables' action lists: the six kinds every target carries and
// bind_none, then whatever the configuration's features add, in kind-table
// order.
const (
	actStrict = "bind_freq_echo bind_freq_dst bind_freq_dport bind_freq_proto bind_freq_len bind_window bind_none"
	actBase   = actStrict + " bind_window_bytes"
	actEnt    = " bind_ent_dst bind_ent_src"
	actHH     = " bind_hh_dst bind_hh_src"
	actFlow   = " bind_flow_dst bind_flow_src bind_flow_pair"
)

// emittedGolden pins every Registered() configuration. These rows are what
// "emitted program unchanged" means: a refactor of the emitter, the kind
// table or the P4-16 back end that moves one of them changed a program the
// BENCH/DETECT artifacts and the blast workloads were measured on. When a
// row must move, the failure prints the new row; say in the PR why it moved.
var emittedGolden = map[string]emitted{
	"default":      {0x78ed9e1ce7d721b6, 0xde149443a8a18c70, 34, 33728, 40, actBase},
	"echo":         {0x8fad6b71d6739a63, 0xf0873b14cd9f8b5, 25, 8312, 33, actBase},
	"strict":       {0x520d3c223a340cb2, 0xff0fb9e3e2798324, 32, 33728, 47, actStrict},
	"cell32":       {0xf526ac62519dd0d, 0x5188ddf4a2a99639, 34, 4216, 40, actBase},
	"novariance":   {0xb780f0d3b77cd5de, 0x71111d7e9c6242da, 24, 33728, 32, actBase},
	"casestudy":    {0xb7cb73cb79a33d13, 0x3611f5b1367fd106, 34, 8432, 40, actBase},
	"ddos-sparse":  {0x77ca812f2a33b727, 0x724abcd989ffe19f, 31, 10392, 42, actBase + actFlow},
	"synflood":     {0x43758b040bd9d2ee, 0xbfae0ea2a7e9552a, 25, 1144, 33, actBase},
	"replay":       {0x66893585a215fcb6, 0x329ba60148d3a10a, 25, 4216, 33, actBase},
	"entropy":      {0xb89d421193e0415f, 0x7ea1f5d31ec13858, 25, 6272, 33, actBase + actEnt},
	"heavyhitter":  {0x17b18b00676b409d, 0xd6e2b0cb5aee70ef, 33, 1408, 33, actBase + actHH},
	"entropy-hh":   {0x98d00d36be3cba0a, 0x7c13a762ecdc6b7f, 33, 13072, 33, actBase + actEnt + actHH},
	"flowtable":    {0xd42989dde11ff304, 0xfd8ed6935ec6b462, 31, 25752, 42, actBase + actFlow},
	"flowtable-hh": {0xce33140e82345c69, 0x3d2c18dd9ec60f0f, 28, 205632, 24, actBase + actHH + actFlow},
	"loadbalance":  {0xb2d1f66163298f86, 0x90034927f78f0aaa, 25, 376, 33, actBase},
	"trafficclass": {0x4c924a5d89bd8ce3, 0x5df660335b3fa1ce, 34, 2288, 40, actBase},
	"detect-hh":    {0x1c35f92a20b1e005, 0x7eea93c18da4d25, 33, 3200, 33, actBase + actHH},
	"replay-hh":    {0xc81fa4f7742e2bdd, 0xedcba0c27b74d67f, 33, 4480, 33, actBase + actHH},
	"replay-flow":  {0x390adfe73c96f7e4, 0x5e0089d5f93def42, 31, 28824, 42, actBase + actFlow},
}

// TestEmittedGolden pins the emitted program of every registered
// configuration: both textual forms, its pisa-3pass placement and the
// bindable-action order.
func TestEmittedGolden(t *testing.T) {
	reg := Registered()
	if len(reg) != len(emittedGolden) {
		t.Errorf("catalog has %d configurations, goldens cover %d", len(reg), len(emittedGolden))
	}
	for _, rp := range reg {
		rp := rp
		t.Run(rp.Name, func(t *testing.T) {
			got := emit(t, rp.Opts)
			if want, ok := emittedGolden[rp.Name]; !ok {
				t.Errorf("no golden; add\n\t%q: %v,", rp.Name, got)
			} else if got != want {
				t.Errorf("emitted program drifted:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestBuildDeterministic builds every configuration twice in one process and
// compares the listings: map-ordered emission shows up here as a diff even
// when a single run happens to match the golden.
func TestBuildDeterministic(t *testing.T) {
	for _, rp := range Registered() {
		a, b := Build(rp.Opts), Build(rp.Opts)
		if p4.Format(a.Prog) != p4.Format(b.Prog) {
			t.Errorf("%s: two builds format differently", rp.Name)
		}
		if EmitP416(a) != EmitP416(b) {
			t.Errorf("%s: two builds emit different P4-16", rp.Name)
		}
	}
}
