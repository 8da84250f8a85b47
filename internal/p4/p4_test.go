package p4

import (
	"errors"
	"strings"
	"testing"

	"stat4/internal/packet"
)

// buildCounterProgram is a small program used across tests: it counts IPv4
// packets per /24 via an LPM binding table and mirrors frames back out.
func buildCounterProgram() (*Program, StdFields) {
	p := NewProgram("test-counter")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 32)
	tmp := p.AddField("meta.tmp", 64)

	p.AddRegister("counters", 64, 64)

	p.AddAction(NewAction("count_at", 1,
		Mov(idx, P(0)),
		RegRead(tmp, "counters", F(idx)),
		Add(tmp, F(tmp), C(1)),
		RegWrite("counters", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("noop", 0))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))

	p.AddTable(&TableDef{
		Name:          "bind",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchLPM}},
		ActionNames:   []string{"count_at", "noop"},
		DefaultAction: "noop",
		MaxEntries:    32,
	})
	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Apply("bind"),
		),
		Call("reflect"),
	}
	return p, std
}

func mustSwitch(t *testing.T, p *Program, std StdFields) *Switch {
	t.Helper()
	sw, err := buildSwitch(p, std, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func udpTo(dst packet.IP4) []byte {
	return packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, 10).Serialize()
}

func TestSwitchCountsViaLPM(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)

	// Bind 10.0.5.0/24 -> cell 3, 10.0.0.0/8 -> cell 9 (less specific).
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}},
		0, "count_at", []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}},
		0, "count_at", []uint64{9}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		sw.ProcessFrame(uint64(i), 1, udpTo(packet.ParseIP4(10, 0, 5, 6)))
	}
	for i := 0; i < 2; i++ {
		sw.ProcessFrame(uint64(i), 1, udpTo(packet.ParseIP4(10, 9, 9, 9)))
	}
	sw.ProcessFrame(99, 1, udpTo(packet.ParseIP4(172, 16, 0, 1))) // miss → noop

	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Read(3); v != 5 {
		t.Fatalf("cell 3 = %d, want 5 (longest prefix must win)", v)
	}
	if v, _ := reg.Read(9); v != 2 {
		t.Fatalf("cell 9 = %d, want 2", v)
	}
	st := sw.Stats()
	if st.PktsIn != 8 || st.PktsOut != 8 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSwitchReflectsToIngressPort(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	out := sw.ProcessFrame(0, 7, udpTo(packet.ParseIP4(10, 0, 0, 1)))
	if len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("out = %+v, want reflection to port 7", out)
	}
	// Default deparser forwards the frame unchanged.
	if _, err := packet.Parse(out[0].Data); err != nil {
		t.Fatalf("forwarded frame unparseable: %v", err)
	}
}

func TestSwitchDropsGarbage(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	if out := sw.ProcessFrame(0, 1, []byte{1, 2, 3}); out != nil {
		t.Fatal("garbage frame forwarded")
	}
	st := sw.Stats()
	if st.ParseErrors != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDropAction(t *testing.T) {
	p := NewProgram("dropper")
	std := DeclareStdFields(p)
	p.AddAction(NewAction("deny", 0, Drop()))
	p.Control = []Stmt{Call("deny")}
	sw := mustSwitch(t, p, std)
	if out := sw.ProcessFrame(0, 1, udpTo(1)); out != nil {
		t.Fatal("dropped packet was emitted")
	}
	if sw.Stats().Dropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestTernaryPriority(t *testing.T) {
	p := NewProgram("ternary")
	std := DeclareStdFields(p)
	mark := p.AddField("meta.mark", 8)
	p.AddAction(NewAction("set_mark", 1, Mov(mark, P(0))))
	p.AddAction(NewAction("noop", 0))
	p.AddTable(&TableDef{
		Name:          "classify",
		Keys:          []KeySpec{{Field: std.TCPDport, Kind: MatchTernary}},
		ActionNames:   []string{"set_mark"},
		DefaultAction: "noop",
		MaxEntries:    8,
	})
	p.Control = []Stmt{Apply("classify"), Call("noop")}
	sw := mustSwitch(t, p, std)

	// Low-priority catch-all vs high-priority exact 443.
	if _, err := sw.InsertEntry("classify",
		[]MatchValue{{Value: 0, Mask: 0}}, 1, "set_mark", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InsertEntry("classify",
		[]MatchValue{{Value: 443, Mask: 0xffff}}, 10, "set_mark", []uint64{2}); err != nil {
		t.Fatal(err)
	}

	frame443 := packet.NewTCPFrame(1, 2, 99, 443, packet.FlagSYN).Serialize()
	frame80 := packet.NewTCPFrame(1, 2, 99, 80, packet.FlagSYN).Serialize()

	var got uint64
	p4probe := func(b []byte) uint64 {
		pkt, _ := packet.Parse(b)
		ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
		std.extract(ctx, 0, 0, pkt)
		sw.execStmts(&treeCtx{Ctx: ctx}, p.Control)
		return ctx.Get(mark)
	}
	if got = p4probe(frame443); got != 2 {
		t.Fatalf("mark for :443 = %d, want 2 (priority)", got)
	}
	if got = p4probe(frame80); got != 1 {
		t.Fatalf("mark for :80 = %d, want 1 (catch-all)", got)
	}
}

func TestRuntimeEntryLifecycle(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	id, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 1, 0)), PrefixLen: 24}},
		0, "count_at", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 1, 5)))

	// Drill-down style rebind: same match, new argument.
	if err := sw.DeleteEntry("bind", id); err != nil {
		t.Fatal(err)
	}
	if id, err = sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 1, 0)), PrefixLen: 24}},
		0, "count_at", []uint64{2}); err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(1, 1, udpTo(packet.ParseIP4(10, 0, 1, 5)))

	reg, _ := sw.Register("counters")
	if v, _ := reg.Read(1); v != 1 {
		t.Fatalf("cell 1 = %d", v)
	}
	if v, _ := reg.Read(2); v != 1 {
		t.Fatalf("cell 2 = %d", v)
	}

	if err := sw.DeleteEntry("bind", id); err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(2, 1, udpTo(packet.ParseIP4(10, 0, 1, 5)))
	if v, _ := reg.Read(2); v != 1 {
		t.Fatal("deleted entry still counting")
	}
	if err := sw.DeleteEntry("bind", id); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("double delete err = %v", err)
	}
	if n := len(sw.Snapshot().Entries["bind"]); n != 0 {
		t.Fatalf("%d entries left", n)
	}
}

func TestEntryValidation(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	if _, err := sw.InsertEntry("bind", nil, 0, "count_at", []uint64{1}); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("missing match accepted: %v", err)
	}
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: 0, PrefixLen: 40}}, 0, "count_at", []uint64{1}); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("bad prefix accepted: %v", err)
	}
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: 0, PrefixLen: 8}}, 0, "reflect", nil); !errors.Is(err, ErrNoSuchAction) {
		t.Fatalf("unbindable action accepted: %v", err)
	}
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: 0, PrefixLen: 8}}, 0, "count_at", nil); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("wrong arity accepted: %v", err)
	}
	if _, err := sw.InsertEntry("nope", nil, 0, "x", nil); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("unknown table: %v", err)
	}
}

func TestTableFull(t *testing.T) {
	p, std := buildCounterProgram()
	for _, tb := range p.Tables {
		tb.MaxEntries = 1
	}
	sw := mustSwitch(t, p, std)
	m := []MatchValue{{Value: 0, PrefixLen: 8}}
	if _, err := sw.InsertEntry("bind", m, 0, "noop", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InsertEntry("bind", m, 0, "noop", nil); !errors.Is(err, ErrTableFull) {
		t.Fatalf("overfull insert err = %v", err)
	}
}

func TestRegisterBoundsFaultInjection(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	// Bind an out-of-bounds cell: the data plane must survive, count an
	// error, and leave state untouched.
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: 0, PrefixLen: 1}}, 0, "count_at", []uint64{9999}); err != nil {
		t.Fatal(err)
	}
	out := sw.ProcessFrame(0, 1, udpTo(packet.ParseIP4(1, 2, 3, 4)))
	if len(out) != 1 {
		t.Fatal("packet with faulting action not forwarded")
	}
	st := sw.Stats()
	if st.RuntimeErrors == 0 {
		t.Fatal("out-of-bounds register access not counted")
	}
}

func TestDigestDelivery(t *testing.T) {
	p := NewProgram("alerter")
	std := DeclareStdFields(p)
	p.AddAction(NewAction("alert", 0, EmitDigest(7, std.IPv4Dst, std.WireLen)))
	p.Control = []Stmt{Call("alert")}
	sw := mustSwitch(t, p, std)
	frame := udpTo(packet.ParseIP4(10, 0, 5, 6))
	sw.ProcessFrame(0, 1, frame)
	select {
	case d := <-sw.Digests():
		if d.ID != 7 || len(d.Values) != 2 {
			t.Fatalf("digest = %+v", d)
		}
		if d.Values[0] != uint64(packet.ParseIP4(10, 0, 5, 6)) {
			t.Fatalf("digest dst = %v", packet.IP4(d.Values[0]))
		}
		if d.Values[1] != uint64(len(frame)) {
			t.Fatalf("digest len = %d, want %d", d.Values[1], len(frame))
		}
	default:
		t.Fatal("no digest delivered")
	}
}

func TestDigestOverflowDrops(t *testing.T) {
	p := NewProgram("alerter")
	std := DeclareStdFields(p)
	p.AddAction(NewAction("alert", 0, EmitDigest(1, std.WireLen)))
	p.Control = []Stmt{Call("alert")}
	sw, err := buildSwitch(p, std, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sw.ProcessFrame(uint64(i), 1, udpTo(1))
	}
	if got := sw.Stats().DigestDrops; got != 3 {
		t.Fatalf("DigestDrops = %d, want 3", got)
	}
}

func TestValidateRejectsPacketDependentShift(t *testing.T) {
	p := NewProgram("bad-shift")
	std := DeclareStdFields(p)
	x := p.AddField("meta.x", 32)
	p.AddAction(NewAction("bad", 0, Shl(x, F(x), F(std.WireLen))))
	p.Control = []Stmt{Call("bad")}
	if err := p.Validate(); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("packet-dependent shift accepted: %v", err)
	}
}

func TestValidateRejectsBrokenPrograms(t *testing.T) {
	build := func(f func(p *Program, std StdFields)) error {
		p := NewProgram("bad")
		std := DeclareStdFields(p)
		f(p, std)
		return p.Validate()
	}
	cases := map[string]func(p *Program, std StdFields){
		"undeclared table": func(p *Program, std StdFields) {
			p.Control = []Stmt{Apply("ghost")}
		},
		"undeclared action": func(p *Program, std StdFields) {
			p.Control = []Stmt{Call("ghost")}
		},
		"arity mismatch": func(p *Program, std StdFields) {
			p.AddAction(NewAction("a", 2))
			p.Control = []Stmt{Call("a", 1)}
		},
		"undeclared register": func(p *Program, std StdFields) {
			x := p.AddField("x", 8)
			p.AddAction(NewAction("a", 0, RegRead(x, "ghost", C(0))))
			p.Control = []Stmt{Call("a")}
		},
		"param out of range": func(p *Program, std StdFields) {
			x := p.AddField("x", 8)
			p.AddAction(NewAction("a", 1, Mov(x, P(1))))
			p.Control = []Stmt{Call("a", 0)}
		},
		"multi-key lpm": func(p *Program, std StdFields) {
			p.AddAction(NewAction("a", 0))
			p.AddTable(&TableDef{
				Name: "t",
				Keys: []KeySpec{
					{Field: std.IPv4Src, Kind: MatchLPM},
					{Field: std.IPv4Dst, Kind: MatchExact},
				},
				ActionNames: []string{"a"}, MaxEntries: 1,
			})
			p.Control = []Stmt{Apply("t")}
		},
		"table action undeclared": func(p *Program, std StdFields) {
			p.AddTable(&TableDef{
				Name:        "t",
				Keys:        []KeySpec{{Field: std.IPv4Src, Kind: MatchExact}},
				ActionNames: []string{"ghost"}, MaxEntries: 1,
			})
			p.Control = []Stmt{Apply("t")}
		},
		"duplicate register": func(p *Program, std StdFields) {
			p.AddRegister("r", 1, 8)
			p.AddRegister("r", 1, 8)
		},
		"non-field destination": func(p *Program, std StdFields) {
			p.AddAction(&Action{Name: "a", Ops: []Op{{Code: OpAdd, Dst: C(1), A: C(1), B: C(1)}}})
			p.Control = []Stmt{Call("a")}
		},
	}
	for name, f := range cases {
		if err := build(f); !errors.Is(err, ErrInvalidProgram) {
			t.Errorf("%s: err = %v, want ErrInvalidProgram", name, err)
		}
	}
}

// TestProgramNameIndex pins the action and table name index: lookups
// resolve to a name's first declaration, as a scan in declaration order
// would, and a name declared twice (or one action declared twice) is still
// an invalid program.
func TestProgramNameIndex(t *testing.T) {
	p := NewProgram("dup")
	std := DeclareStdFields(p)
	first, second := NewAction("a", 0), NewAction("a", 1)
	p.AddAction(first)
	p.AddAction(second)
	t1 := &TableDef{Name: "t", Keys: []KeySpec{{Field: std.IPv4Dst, Kind: MatchExact}}, ActionNames: []string{"a"}, MaxEntries: 1}
	t2 := &TableDef{Name: "t", Keys: []KeySpec{{Field: std.IPv4Src, Kind: MatchExact}}, ActionNames: []string{"a"}, MaxEntries: 2}
	p.AddTable(t1)
	p.AddTable(t2)
	if a, ok := p.action("a"); !ok || a != first {
		t.Fatalf("action(a) = %p, %v; want the first declaration %p", a, ok, first)
	}
	if tb, ok := p.table("t"); !ok || tb != t1 {
		t.Fatalf("table(t) = %p, %v; want the first declaration %p", tb, ok, t1)
	}
	if _, ok := p.action("ghost"); ok {
		t.Fatal("undeclared action resolved")
	}
	if err := p.Validate(); !errors.Is(err, ErrInvalidProgram) || !strings.Contains(err.Error(), `duplicate action "a"`) {
		t.Fatalf("duplicate action: err = %v", err)
	}

	build := func(f func(p *Program, std StdFields)) error {
		p := NewProgram("dup")
		std := DeclareStdFields(p)
		f(p, std)
		return p.Validate()
	}
	if err := build(func(p *Program, std StdFields) {
		a := NewAction("a", 0)
		p.AddAction(a)
		p.AddAction(a)
	}); !errors.Is(err, ErrInvalidProgram) || !strings.Contains(err.Error(), `duplicate action "a"`) {
		t.Fatalf("one action declared twice: err = %v", err)
	}
	if err := build(func(p *Program, std StdFields) {
		p.AddAction(NewAction("a", 0))
		for _, f := range []FieldID{std.IPv4Dst, std.IPv4Src} {
			p.AddTable(&TableDef{Name: "t", Keys: []KeySpec{{Field: f, Kind: MatchExact}}, ActionNames: []string{"a"}, MaxEntries: 1})
		}
	}); !errors.Is(err, ErrInvalidProgram) || !strings.Contains(err.Error(), `duplicate table "t"`) {
		t.Fatalf("duplicate table: err = %v", err)
	}
}

func TestValidateAcceptsCounterProgram(t *testing.T) {
	p, _ := buildCounterProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	p := NewProgram("arith")
	std := DeclareStdFields(p)
	a := p.AddField("a", 8)
	b := p.AddField("b", 8)
	p.AddAction(NewAction("go", 0,
		Mov(a, C(250)),
		Add(a, F(a), C(10)), // wraps at 8 bits: 260 & 255 = 4
		Mov(b, C(250)),
		SatAdd(b, F(b), C(10)), // saturates: 255
	))
	p.Control = []Stmt{Call("go")}
	sw := mustSwitch(t, p, std)
	pkt, _ := packet.Parse(udpTo(1))
	ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
	std.extract(ctx, 0, 0, pkt)
	sw.execStmts(&treeCtx{Ctx: ctx}, p.Control)
	if ctx.Get(a) != 4 {
		t.Fatalf("wrapping add = %d, want 4", ctx.Get(a))
	}
	if ctx.Get(b) != 255 {
		t.Fatalf("saturating add = %d, want 255", ctx.Get(b))
	}
}

func TestSatSubAndShifts(t *testing.T) {
	p := NewProgram("arith2")
	std := DeclareStdFields(p)
	a := p.AddField("a", 16)
	p.AddAction(NewAction("go", 0,
		Mov(a, C(5)),
		SatSub(a, F(a), C(9)), // 0
		Add(a, F(a), C(6)),
		Shl(a, F(a), C(2)), // 24
		Shr(a, F(a), C(3)), // 3
		Xor(a, F(a), C(1)), // 2
		Or(a, F(a), C(8)),  // 10
		And(a, F(a), C(6)), // 2
	))
	p.Control = []Stmt{Call("go")}
	sw := mustSwitch(t, p, std)
	pkt, _ := packet.Parse(udpTo(1))
	ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
	std.extract(ctx, 0, 0, pkt)
	sw.execStmts(&treeCtx{Ctx: ctx}, p.Control)
	if ctx.Get(a) != 2 {
		t.Fatalf("op chain = %d, want 2", ctx.Get(a))
	}
}

func TestParserExtraction(t *testing.T) {
	p := NewProgram("parse")
	std := DeclareStdFields(p)
	p.AddAction(NewAction("noop", 0))
	p.Control = []Stmt{Call("noop")}
	sw := mustSwitch(t, p, std)

	syn := packet.NewTCPFrame(packet.ParseIP4(1, 1, 1, 1), packet.ParseIP4(2, 2, 2, 2), 5, 80, packet.FlagSYN)
	pkt, _ := packet.Parse(syn.Serialize())
	ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
	std.extract(ctx, 123456, 4, pkt)
	if ctx.Get(std.TsNs) != 123456 || ctx.Get(std.InPort) != 4 {
		t.Fatal("intrinsics wrong")
	}
	if ctx.Get(std.IPv4Valid) != 1 || ctx.Get(std.TCPValid) != 1 || ctx.Get(std.UDPValid) != 0 {
		t.Fatal("validity bits wrong")
	}
	if ctx.Get(std.TCPSyn) != 1 || ctx.Get(std.TCPDport) != 80 {
		t.Fatal("TCP fields wrong")
	}

	echo := packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, -5)
	pkt, _ = packet.Parse(echo.Serialize())
	ctx = &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
	std.extract(ctx, 0, 0, pkt)
	if ctx.Get(std.EchoValid) != 1 {
		t.Fatal("echo not recognised")
	}
	if got := ctx.Get(std.EchoValue); got != EchoBias-5 {
		t.Fatalf("echo value = %d, want %d", got, EchoBias-5)
	}
}

func TestAnalyzeToyProgram(t *testing.T) {
	p, _ := buildCounterProgram()
	r := AnalyzeProgram(p)
	if r.RegisterCells != 64 || r.RegisterBytes != 512 {
		t.Fatalf("register accounting = %d cells / %d bytes", r.RegisterCells, r.RegisterBytes)
	}
	if r.NumTables != 1 || r.NumActions != 3 {
		t.Fatalf("counts = %+v", r)
	}
	// count_at: mov(1) → regread(2) → add(3) → regwrite(4), plus the
	// lookup step and the gating if: if(1) → lookup(2) → then ops start at
	// depth 2 … regwrite lands at 6.
	if r.LongestDepChain < 5 || r.LongestDepChain > 8 {
		t.Fatalf("LongestDepChain = %d, want ≈6", r.LongestDepChain)
	}
	// Single table: no rule depends on another rule's writes.
	if r.MatchRuleDependencies != 0 {
		t.Fatalf("MatchRuleDependencies = %d, want 0", r.MatchRuleDependencies)
	}
	if r.TotalBytes != r.RegisterBytes+r.TableBytes || r.TableBytes == 0 {
		t.Fatalf("byte totals inconsistent: %+v", r)
	}
}

func TestAnalyzeMatchDependency(t *testing.T) {
	// Table t2 matches on a field written by t1's action: one rule
	// dependency.
	p := NewProgram("dep")
	std := DeclareStdFields(p)
	cls := p.AddField("meta.class", 8)
	p.AddAction(NewAction("classify", 1, Mov(cls, P(0))))
	p.AddAction(NewAction("noop", 0))
	p.AddTable(&TableDef{
		Name: "t1", Keys: []KeySpec{{Field: std.IPv4Dst, Kind: MatchExact}},
		ActionNames: []string{"classify"}, DefaultAction: "noop", MaxEntries: 4,
	})
	p.AddTable(&TableDef{
		Name: "t2", Keys: []KeySpec{{Field: cls, Kind: MatchExact}},
		ActionNames: []string{"noop"}, DefaultAction: "noop", MaxEntries: 4,
	})
	p.Control = []Stmt{Apply("t1"), Apply("t2")}
	r := AnalyzeProgram(p)
	if r.MatchRuleDependencies != 1 {
		t.Fatalf("MatchRuleDependencies = %d, want 1", r.MatchRuleDependencies)
	}
}

func TestRegisterControlPlaneAccess(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteCell(5, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := reg.Read(5); err != nil || v != 42 {
		t.Fatalf("Read(5) = %d, %v", v, err)
	}
	if _, err := reg.Read(64); err == nil {
		t.Fatal("out-of-bounds control read accepted")
	}
	if err := reg.WriteCell(-1, 0); err == nil {
		t.Fatal("out-of-bounds control write accepted")
	}
	snap := reg.Snapshot()
	if len(snap) != 64 || snap[5] != 42 {
		t.Fatal("Snapshot wrong")
	}
	snap[5] = 0
	if v, _ := reg.Read(5); v != 42 {
		t.Fatal("Snapshot aliases live cells")
	}
	if _, err := sw.Register("ghost"); err == nil {
		t.Fatal("unknown register accepted")
	}
}

func TestRegisterWidthMasking(t *testing.T) {
	p := NewProgram("width")
	std := DeclareStdFields(p)
	x := p.AddField("x", 32)
	p.AddRegister("narrow", 4, 8)
	p.AddAction(NewAction("go", 0,
		Mov(x, C(0x1ff)),
		RegWrite("narrow", C(0), F(x)),
	))
	p.Control = []Stmt{Call("go")}
	sw := mustSwitch(t, p, std)
	sw.ProcessFrame(0, 1, udpTo(1))
	reg, _ := sw.Register("narrow")
	if v, _ := reg.Read(0); v != 0xff {
		t.Fatalf("8-bit cell holds %#x, want 0xff", v)
	}
}

func TestIfElseBranching(t *testing.T) {
	p := NewProgram("branch")
	std := DeclareStdFields(p)
	x := p.AddField("x", 8)
	p.AddAction(NewAction("then", 0, Mov(x, C(1))))
	p.AddAction(NewAction("else", 0, Mov(x, C(2))))
	p.Control = []Stmt{
		If(Cond{A: F(std.TCPValid), Op: CmpEq, B: C(1)},
			Call("then"),
		).WithElse(Call("else")),
	}
	sw := mustSwitch(t, p, std)
	probe := func(b []byte) uint64 {
		pkt, _ := packet.Parse(b)
		ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
		std.extract(ctx, 0, 0, pkt)
		sw.execStmts(&treeCtx{Ctx: ctx}, p.Control)
		return ctx.Get(x)
	}
	tcp := packet.NewTCPFrame(1, 2, 3, 4, 0).Serialize()
	udp := udpTo(1)
	if probe(tcp) != 1 {
		t.Fatal("then branch not taken")
	}
	if probe(udp) != 2 {
		t.Fatal("else branch not taken")
	}
}

func TestMatchKindString(t *testing.T) {
	if MatchExact.String() != "exact" || MatchLPM.String() != "lpm" ||
		MatchTernary.String() != "ternary" || MatchKind(9).String() == "" {
		t.Fatal("MatchKind.String wrong")
	}
}

func TestOpCodeString(t *testing.T) {
	if OpAdd.String() != "add" || OpCode(200).String() == "" {
		t.Fatal("OpCode.String wrong")
	}
}

func TestFormatRendersProgram(t *testing.T) {
	p, _ := buildCounterProgram()
	out := Format(p)
	for _, want := range []string{
		"program \"test-counter\"", "target=bmv2",
		"registers (1):", "counters", "64 cells",
		"action count_at(1 params)", "meta.tmp = counters[meta.idx]",
		"table bind", "key ipv4.dst : lpm", "default noop()",
		"apply bind", "if ipv4.valid == 1 {", "egress = std.in_port",
	} {
		if !containsStr(out, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}

func TestHashOpSemantics(t *testing.T) {
	p := NewProgram("hash")
	std := DeclareStdFields(p)
	h := p.AddField("h", 64)
	p.AddAction(NewAction("go", 0, Hash(h, 1, F(std.IPv4Dst), 0xff)))
	p.Control = []Stmt{Call("go")}
	sw := mustSwitch(t, p, std)
	pkt, _ := packet.Parse(udpTo(packet.ParseIP4(10, 1, 2, 3)))
	ctx := &Ctx{fields: make([]uint64, len(p.Fields)), sw: sw}
	std.extract(ctx, 0, 0, pkt)
	sw.execStmts(&treeCtx{Ctx: ctx}, p.Control)
	want := HashValue(1, uint64(packet.ParseIP4(10, 1, 2, 3))) & 0xff
	if got := ctx.Get(h); got != want {
		t.Fatalf("hash op = %d, want %d", got, want)
	}
}

func TestHashOpValidation(t *testing.T) {
	build := func(op Op) error {
		p := NewProgram("bad-hash")
		DeclareStdFields(p)
		h := p.AddField("h", 64)
		op.Dst = F(h)
		p.AddAction(&Action{Name: "a", Ops: []Op{op}})
		p.Control = []Stmt{Call("a")}
		return p.Validate()
	}
	if err := build(Op{Code: OpHash, A: C(1), B: C(0xff), HashID: NumHashFunctions}); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("out-of-range hash id accepted: %v", err)
	}
	if err := build(Op{Code: OpHash, A: C(1), B: F(0), HashID: 0}); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("field mask accepted: %v", err)
	}
	if err := build(Op{Code: OpHash, A: C(1), B: C(0xff), HashID: 0}); err != nil {
		t.Fatalf("valid hash rejected: %v", err)
	}
}

func TestHashStrictLegal(t *testing.T) {
	p := NewProgram("strict-hash")
	p.Target = TargetStrict
	DeclareStdFields(p)
	h := p.AddField("h", 64)
	p.AddAction(NewAction("go", 0, Hash(h, 0, F(h), 0xff)))
	p.Control = []Stmt{Call("go")}
	if err := p.Validate(); err != nil {
		t.Fatalf("hash rejected on strict target: %v", err)
	}
}

func TestHashValueDeterministic(t *testing.T) {
	for id := 0; id < NumHashFunctions; id++ {
		if HashValue(id, 12345) != HashValue(id, 12345) {
			t.Fatal("hash not deterministic")
		}
	}
	if HashValue(0, 1) == HashValue(1, 1) {
		t.Fatal("hash family members collide on a trivial input")
	}
}

func TestCondEvalAllOperators(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b uint64
		want bool
	}{
		{CmpEq, 3, 3, true}, {CmpEq, 3, 4, false},
		{CmpNe, 3, 4, true}, {CmpNe, 3, 3, false},
		{CmpLt, 3, 4, true}, {CmpLt, 4, 3, false}, {CmpLt, 3, 3, false},
		{CmpLe, 3, 3, true}, {CmpLe, 4, 3, false},
		{CmpGt, 4, 3, true}, {CmpGt, 3, 4, false},
		{CmpGe, 3, 3, true}, {CmpGe, 2, 3, false},
	}
	for _, c := range cases {
		if got := (Cond{Op: c.op}).eval(c.a, c.b); got != c.want {
			t.Errorf("eval(%v, %d, %d) = %v", c.op, c.a, c.b, got)
		}
	}
	if (Cond{Op: CmpOp(99)}).eval(1, 1) {
		t.Error("unknown operator evaluated true")
	}
}

func TestFormatOpCoverage(t *testing.T) {
	p := NewProgram("fmt")
	DeclareStdFields(p)
	x := p.AddField("x", 32)
	p.AddRegister("r", 4, 32)
	ops := []Op{
		Mov(x, C(1)), Add(x, F(x), C(2)), Sub(x, F(x), C(1)), Mul(x, F(x), C(3)),
		SatAdd(x, F(x), C(1)), SatSub(x, F(x), C(1)),
		And(x, F(x), C(7)), Or(x, F(x), C(8)), Xor(x, F(x), C(9)), Not(x, F(x)),
		Shl(x, F(x), C(2)), Shr(x, F(x), C(1)),
		Hash(x, 2, F(x), 0xff),
		RegRead(x, "r", C(0)), RegWrite("r", C(1), F(x)),
		EmitDigest(5, x), SetEgress(C(3)), Drop(),
		{Code: OpMov, Dst: F(x), A: P(0)},
		{Code: OpMov, Dst: F(x), A: C(1 << 20)},
		{Code: OpCode(99)},
	}
	for _, op := range ops {
		if s := formatOp(p, op); s == "" {
			t.Errorf("empty rendering for %v", op.Code)
		}
	}
	// Spot-check a few renderings.
	if s := formatOp(p, Hash(x, 2, F(x), 0xff)); s != "x = hash2(x) & 255" {
		t.Errorf("hash rendering = %q", s)
	}
	if s := formatOp(p, Drop()); s != "drop" {
		t.Errorf("drop rendering = %q", s)
	}
	if s := formatOp(p, Op{Code: OpMov, Dst: F(x), A: Ref{Kind: RefKind(9)}}); s != "x = ?" {
		t.Errorf("unknown ref rendering = %q", s)
	}
}

func TestProgramAccessors(t *testing.T) {
	p, _ := buildCounterProgram()
	if id, ok := p.FieldByName("meta.idx"); !ok || p.Fields[id].Name != "meta.idx" {
		t.Fatal("FieldByName lookup failed")
	}
	if _, ok := p.FieldByName("ghost"); ok {
		t.Fatal("FieldByName found a ghost")
	}
	def := RegisterDef{Name: "r", Cells: 10, Width: 12}
	if def.Bytes() != 20 { // 12 bits rounds to 2 bytes
		t.Fatalf("Bytes = %d", def.Bytes())
	}
}
