package p4

import (
	"strings"
	"testing"

	"stat4/internal/packet"
)

// buildRecircProgram models the probabilistic-recirculation heavy-hitter
// shape in miniature: the main pass samples (dst & 3 == 0 stands in for the
// 2^-k hash gate) and raises the recirculation flag; the extra pass promotes
// by bumping a counter cell chosen from metadata the main pass computed —
// exercising PHV state carried across the trip.
func buildRecircProgram() (*Program, StdFields) {
	p := NewProgram("recirc-sample")
	std := DeclareStdFields(p)
	flag := p.AddField("meta.recirc", 1)
	gate := p.AddField("meta.gate", 8)
	slot := p.AddField("meta.slot", 8)
	tmp := p.AddField("meta.tmp", 64)

	p.AddRegister("promoted", 64, 16)

	p.AddAction(NewAction("sample", 0,
		And(gate, F(std.IPv4Dst), C(3)),
		And(slot, F(std.IPv4Dst), C(15)),
	))
	p.AddAction(NewAction("mark", 0, Mov(flag, C(1))))
	p.AddAction(NewAction("promote", 0,
		RegRead(tmp, "promoted", F(slot)),
		Add(tmp, F(tmp), C(1)),
		RegWrite("promoted", F(slot), F(tmp)),
	))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))

	p.Control = []Stmt{
		Call("sample"),
		If(Cond{A: F(gate), Op: CmpEq, B: C(0)}, Call("mark")),
		Call("reflect"),
	}
	p.SetRecirc(flag, []Stmt{Call("promote")})
	return p, std
}

func TestRecircPromotesSampledPackets(t *testing.T) {
	p, std := buildRecircProgram()
	sw := mustSwitch(t, p, std)

	// dst low byte 4 → gate 0 (recirculates into slot 4); 5 and 6 → no trip.
	for i := 0; i < 3; i++ {
		sw.ProcessFrame(uint64(i), 1, udpTo(packet.ParseIP4(10, 0, 0, 4)))
	}
	sw.ProcessFrame(3, 1, udpTo(packet.ParseIP4(10, 0, 0, 5)))
	sw.ProcessFrame(4, 1, udpTo(packet.ParseIP4(10, 0, 0, 6)))

	reg, err := sw.Shard(0).Register("promoted")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Read(4); v != 3 {
		t.Fatalf("promoted[4] = %d, want 3", v)
	}
	for _, cell := range []int{5, 6} {
		if v, _ := reg.Read(cell); v != 0 {
			t.Fatalf("promoted[%d] = %d, want 0 (gate should not fire)", cell, v)
		}
	}
	st := sw.Stats()
	if st.Recirculated != 3 {
		t.Fatalf("Recirculated = %d, want 3", st.Recirculated)
	}
	if st.PktsIn != 5 || st.PktsOut != 5 {
		t.Fatalf("stats = %+v: recirculation must not double-count packets", st)
	}
}

// TestRecircTreeCompiledParity replays one stream through the reference tree
// interpreter and the compiled plan and demands identical register state and
// counters — the recirc pass is covered by the same differential discipline
// as the main control flow.
func TestRecircTreeCompiledParity(t *testing.T) {
	mk := func() *ShardedSwitch {
		p, std := buildRecircProgram()
		return mustSwitch(t, p, std)
	}
	tree, comp := mk(), mk()

	for i := 0; i < 64; i++ {
		f := udpTo(packet.ParseIP4(10, 0, byte(i*7), byte(i*13)))
		ProcessFrameTree(tree, uint64(i), 1, f)
		comp.ProcessFrame(uint64(i), 1, f)
	}

	tr, _ := tree.Shard(0).Register("promoted")
	cr, _ := comp.Shard(0).Register("promoted")
	for cell := 0; cell < 16; cell++ {
		tv, _ := tr.Read(cell)
		cv, _ := cr.Read(cell)
		if tv != cv {
			t.Fatalf("promoted[%d]: tree %d, compiled %d", cell, tv, cv)
		}
	}
	ts, cs := tree.Stats(), comp.Stats()
	if ts != cs {
		t.Fatalf("stats diverge: tree %+v, compiled %+v", ts, cs)
	}
	if ts.Recirculated == 0 {
		t.Fatal("stream never recirculated; parity test is vacuous")
	}
}

// TestRecircRunsAtMostOnce pins the structural bound: a recirc pass that
// re-raises the flag does not earn another trip, because the flag is cleared
// before the pass runs and only checked after the main pass.
func TestRecircRunsAtMostOnce(t *testing.T) {
	p := NewProgram("recirc-greedy")
	std := DeclareStdFields(p)
	flag := p.AddField("meta.recirc", 1)
	tmp := p.AddField("meta.tmp", 64)
	p.AddRegister("trips", 64, 1)
	p.AddAction(NewAction("want", 0, Mov(flag, C(1))))
	p.AddAction(NewAction("again", 0,
		RegRead(tmp, "trips", C(0)),
		Add(tmp, F(tmp), C(1)),
		RegWrite("trips", C(0), F(tmp)),
		Mov(flag, C(1)), // greedy: ask for another pass
	))
	p.Control = []Stmt{Call("want")}
	p.SetRecirc(flag, []Stmt{Call("again")})

	for _, tree := range []bool{false, true} {
		sw := mustSwitch(t, p, std)
		frame := udpTo(packet.ParseIP4(10, 0, 0, 1))
		if tree {
			ProcessFrameTree(sw, 0, 1, frame)
		} else {
			sw.ProcessFrame(0, 1, frame)
		}
		reg, _ := sw.Shard(0).Register("trips")
		if v, _ := reg.Read(0); v != 1 {
			t.Fatalf("tree=%v: trips = %d, want exactly 1", tree, v)
		}
		if st := sw.Stats(); st.Recirculated != 1 {
			t.Fatalf("tree=%v: Recirculated = %d, want 1", tree, st.Recirculated)
		}
	}
}

func TestRecircValidation(t *testing.T) {
	t.Run("empty pass panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("SetRecirc(nil) did not panic")
			}
		}()
		p := NewProgram("x")
		p.SetRecirc(0, nil)
	})
	t.Run("bypassing SetRecirc fails validation", func(t *testing.T) {
		p := NewProgram("x")
		DeclareStdFields(p)
		p.AddAction(NewAction("noop", 0))
		p.Control = []Stmt{Call("noop")}
		p.RecircControl = []Stmt{Call("noop")} // not via SetRecirc
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), "SetRecirc") {
			t.Fatalf("err = %v, want SetRecirc complaint", err)
		}
	})
	t.Run("undeclared flag field", func(t *testing.T) {
		p := NewProgram("x")
		DeclareStdFields(p)
		p.AddAction(NewAction("noop", 0))
		p.Control = []Stmt{Call("noop")}
		p.SetRecirc(FieldID(999), []Stmt{Call("noop")})
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), "undeclared field") {
			t.Fatalf("err = %v, want undeclared-field complaint", err)
		}
	})
	t.Run("broken recirc statements caught", func(t *testing.T) {
		p := NewProgram("x")
		std := DeclareStdFields(p)
		flag := p.AddField("meta.recirc", 1)
		_ = std
		p.AddAction(NewAction("noop", 0))
		p.Control = []Stmt{Call("noop")}
		p.SetRecirc(flag, []Stmt{Call("missing_action")})
		if err := p.Validate(); err == nil {
			t.Fatal("recirc pass calling an undeclared action validated")
		}
	})
}

// TestRecircStageFloor checks the allocator charges the extra pass after the
// main placement: the recirc pass's first stage is the main pass's depth, so
// the total depth a target must budget is main + recirc.
func TestRecircStageFloor(t *testing.T) {
	p, _ := buildRecircProgram()
	rep, err := AllocateStages(p, DefaultTargetModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecircFloor == 0 {
		t.Fatal("RecircFloor = 0 for a recirculating program")
	}
	if rep.StagesUsed <= rep.RecircFloor {
		t.Fatalf("StagesUsed %d <= RecircFloor %d: recirc pass placed nothing",
			rep.StagesUsed, rep.RecircFloor)
	}
	if !rep.Fit {
		t.Fatalf("program should fit the default model: %v", rep.Violations)
	}

	// The same program without the recirc pass is strictly shallower.
	q, _ := buildRecircProgram()
	q.RecircControl, q.hasRecirc = nil, false
	base, err := AllocateStages(q, DefaultTargetModel())
	if err != nil {
		t.Fatal(err)
	}
	if base.RecircFloor != 0 {
		t.Fatalf("RecircFloor = %d for a program without recirculation", base.RecircFloor)
	}
	if base.StagesUsed != rep.RecircFloor {
		t.Fatalf("main-only depth %d != RecircFloor %d", base.StagesUsed, rep.RecircFloor)
	}
}
