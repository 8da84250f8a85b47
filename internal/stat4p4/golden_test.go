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
	actSparse = " bind_sparse_dst bind_sparse_src"
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
	"default":      {0x78ed9e1ce7d721b6, 0xea9de401e10a79b4, 34, 33728, 40, actBase},
	"echo":         {0x8fad6b71d6739a63, 0xc1da855c950a4d99, 25, 8312, 33, actBase},
	"strict":       {0x520d3c223a340cb2, 0xa71f771889904246, 32, 33728, 47, actStrict},
	"cell32":       {0xf526ac62519dd0d, 0x2f943d0ac83c22b5, 34, 4216, 40, actBase},
	"novariance":   {0xb780f0d3b77cd5de, 0x34b61b9e76d890ae, 24, 33728, 32, actBase},
	"sparse":       {0x3c3d6122ecd9f590, 0xa4f8a0e2c9aed838, 28, 2176, 36, actBase + actSparse},
	"casestudy":    {0xb7cb73cb79a33d13, 0xae09979a83435e52, 34, 8432, 40, actBase},
	"ddos-sparse":  {0x31fc0485709cef08, 0x5f27449f826c3720, 28, 8320, 36, actBase + actSparse},
	"synflood":     {0x43758b040bd9d2ee, 0x6f53560871a76010, 25, 1144, 33, actBase},
	"replay":       {0x66893585a215fcb6, 0xb29862d9c283c8e6, 25, 4216, 33, actBase},
	"entropy":      {0xb89d421193e0415f, 0x70218f699c459fec, 25, 6272, 33, actBase + actEnt},
	"heavyhitter":  {0x17b18b00676b409d, 0xae91ca4524aa6a55, 33, 1408, 33, actBase + actHH},
	"entropy-hh":   {0x98d00d36be3cba0a, 0xb29895151166b725, 33, 13072, 33, actBase + actEnt + actHH},
	"flowtable":    {0xd42989dde11ff304, 0x28cf460b5d999f5c, 31, 25752, 42, actBase + actFlow},
	"flowtable-hh": {0xce33140e82345c69, 0x7bdddeb788a1362d, 28, 205632, 24, actBase + actHH + actFlow},
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
			want, ok := emittedGolden[rp.Name]
			if !ok {
				t.Errorf("no golden for %q; add\n\t%q: %v,", rp.Name, rp.Name, emit(t, rp.Opts))
				return
			}
			if got := emit(t, rp.Opts); got != want {
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
