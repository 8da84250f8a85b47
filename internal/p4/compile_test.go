package p4

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"stat4/internal/packet"
)

// buildKitchenSink is a program that exercises every lowering shape: nested
// ifs with and without else branches, table applies with and without default
// actions, direct calls, a ternary table, and most opcodes including hash,
// saturating arithmetic and digests.
func buildKitchenSink() (*Program, StdFields) {
	p := NewProgram("kitchen-sink")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 16)
	tmp := p.AddField("meta.tmp", 64)
	acc := p.AddField("meta.acc", 32)
	narrow := p.AddField("meta.narrow", 8)

	p.AddRegister("cells", 32, 48)
	p.AddRegister("scratch", 4, 64)

	p.AddAction(NewAction("count_at", 2,
		Mov(idx, P(0)),
		RegRead(tmp, "cells", F(idx)),
		SatAdd(tmp, F(tmp), P(1)),
		RegWrite("cells", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("mix", 0,
		Hash(idx, 1, F(std.IPv4Src), 31),
		RegRead(tmp, "cells", F(idx)),
		Xor(acc, F(tmp), F(std.IPv4Dst)),
		Not(narrow, F(acc)),
		Shl(acc, F(acc), C(3)),
		Shr(acc, F(acc), C(1)),
		SatSub(tmp, F(tmp), C(7)),
		RegWrite("scratch", C(1), F(acc)),
	))
	p.AddAction(NewAction("alert", 0,
		EmitDigest(5, std.IPv4Dst, std.InPort),
	))
	p.AddAction(NewAction("widen", 0,
		Sub(acc, F(std.WireLen), C(9)),
		And(tmp, F(acc), C(0xff)),
		Or(tmp, F(tmp), C(0x100)),
		Add(tmp, F(tmp), F(std.TsNs)),
	))
	p.AddAction(NewAction("noop", 0))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))
	p.AddAction(NewAction("deny", 0, Drop()))

	p.AddTable(&TableDef{
		Name:          "bind",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchLPM}},
		ActionNames:   []string{"count_at", "noop"},
		DefaultAction: "noop",
		MaxEntries:    16,
	})
	p.AddTable(&TableDef{
		Name: "classify",
		Keys: []KeySpec{
			{Field: std.EthType, Kind: MatchTernary},
			{Field: std.TCPSyn, Kind: MatchTernary},
		},
		ActionNames: []string{"alert", "deny", "noop"},
		MaxEntries:  16, // no default: a miss must fall through untouched
	})
	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Apply("bind"),
			If(Cond{A: F(std.WireLen), Op: CmpGt, B: C(60)},
				Call("widen"),
			).WithElse(
				Call("mix"),
			),
		).WithElse(
			Apply("classify"),
		),
		If(Cond{A: F(std.Drop), Op: CmpEq, B: C(0)},
			Call("reflect"),
		),
	}
	return p, std
}

func installKitchenSinkEntries(t *testing.T, sw *Switch) {
	t.Helper()
	inserts := []struct {
		tbl    string
		match  []MatchValue
		prio   int
		action string
		args   []uint64
	}{
		{"bind", []MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}}, 0, "count_at", []uint64{3, 2}},
		{"bind", []MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}}, 0, "count_at", []uint64{9, 1}},
		{"classify", []MatchValue{{Value: 0x0806, Mask: 0xffff}, {}}, 5, "alert", nil},
		{"classify", []MatchValue{{Value: 0x0806, Mask: 0xff00}, {}}, 1, "deny", nil},
	}
	for _, in := range inserts {
		if _, err := sw.InsertEntry(in.tbl, in.match, in.prio, in.action, in.args); err != nil {
			t.Fatal(err)
		}
	}
}

// differentialFrames is a deterministic mixed stream: routed IPv4 (hit and
// miss, long and short), TCP SYNs, ARP-ish non-IPv4 frames that hit the
// ternary table (including the deny entry), and garbage.
func differentialFrames(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			dst := packet.ParseIP4(10, 0, 5, byte(rng.Intn(256)))
			frames = append(frames, packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, rng.Intn(64)).Serialize())
		case 1:
			dst := packet.ParseIP4(10, byte(rng.Intn(256)), 0, 1)
			frames = append(frames, packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 2), dst, 1000, 80, 2).Serialize())
		case 2:
			frames = append(frames, packet.NewTCPFrame(packet.ParseIP4(172, 16, 0, 1), packet.ParseIP4(172, 16, 0, 2), 1234, 80, packet.FlagSYN).Serialize())
		case 3:
			pkt := &packet.Packet{Eth: packet.Ethernet{Type: 0x0806}, Payload: []byte{byte(i)}}
			frames = append(frames, pkt.Serialize())
		case 4:
			pkt := &packet.Packet{Eth: packet.Ethernet{Type: 0x08ff}, Payload: []byte{1, 2}}
			frames = append(frames, pkt.Serialize())
		default:
			frames = append(frames, []byte{byte(i), 2, 3})
		}
	}
	return frames
}

// TestCompiledPlanMatchesTreeWalker replays one frame stream through the
// compiled plan and the tree-walking reference and demands byte-identical
// outputs, identical digests, identical stats and identical register state.
func TestCompiledPlanMatchesTreeWalker(t *testing.T) {
	prog, std := buildKitchenSink()
	compiled := mustSwitch(t, prog, std)
	prog2, std2 := buildKitchenSink()
	tree := mustSwitch(t, prog2, std2)
	installKitchenSinkEntries(t, compiled)
	installKitchenSinkEntries(t, tree)

	for i, frame := range differentialFrames(4000, 7) {
		port := uint16(i % 5)
		outC := compiled.ProcessFrame(uint64(i)*100, port, frame)
		// Compare before the next frame reuses the scratch buffers; copy
		// the compiled output because the tree switch's ProcessFrame runs
		// between producing and comparing.
		var savedPort uint16
		var savedData []byte
		if len(outC) > 0 {
			savedPort = outC[0].Port
			savedData = append(savedData, outC[0].Data...)
		}
		outT := tree.processFrameTree(uint64(i)*100, port, frame)
		if len(outC) != len(outT) {
			t.Fatalf("frame %d: compiled emitted %d frames, tree %d", i, len(outC), len(outT))
		}
		if len(outT) > 0 {
			if savedPort != outT[0].Port {
				t.Fatalf("frame %d: compiled port %d, tree port %d", i, savedPort, outT[0].Port)
			}
			if !bytes.Equal(savedData, outT[0].Data) {
				t.Fatalf("frame %d: output bytes differ\ncompiled %x\ntree     %x", i, savedData, outT[0].Data)
			}
		}

		dc, dt := drainDigests(compiled), drainDigests(tree)
		if !reflect.DeepEqual(dc, dt) {
			t.Fatalf("frame %d: digests differ: compiled %v, tree %v", i, dc, dt)
		}
	}

	if sc, st := compiled.Stats(), tree.Stats(); sc != st {
		t.Fatalf("stats differ: compiled %+v, tree %+v", sc, st)
	}
	snapC, snapT := compiled.Snapshot(), tree.Snapshot()
	if !reflect.DeepEqual(snapC.Registers, snapT.Registers) {
		t.Fatalf("register state differs: compiled %v, tree %v", snapC.Registers, snapT.Registers)
	}
}

func drainDigests(sw *Switch) []Digest {
	var out []Digest
	for {
		select {
		case d := <-sw.Digests():
			out = append(out, d)
		default:
			return out
		}
	}
}

// TestLowerStmtsTargets pins the lowering shape: the generic stream is the
// main pass then the recirculation pass, each ending in opHalt, with
// forward-only targets inside its own pass and every apply and register op
// carrying its resolved operand; every trace (a default's, an entry's) keeps
// its targets strictly forward and inside itself, and leaves only by halting
// or by exiting to a generic pc after its apply.
func TestLowerStmtsTargets(t *testing.T) {
	for _, build := range []func() (*Program, StdFields){buildKitchenSink, buildLoweringProgram} {
		prog, std := build()
		sw := mustSwitch(t, prog, std)
		if prog.Name == "kitchen-sink" {
			installKitchenSinkEntries(t, sw)
		} else {
			newLowerRigOn(t, sw).insert(packet.ParseIP4(10, 0, 5, 0), 24, "add_at", 30, 5)
		}
		code := sw.code
		if sw.recircPC == 0 || int(sw.recircPC) >= len(code) {
			t.Fatalf("%s: recirculation pass at %d in a %d-op stream", prog.Name, sw.recircPC, len(code))
		}
		if code[sw.recircPC-1].code != opHalt || code[len(code)-1].code != opHalt {
			t.Fatalf("%s: passes are not terminated by opHalt", prog.Name)
		}
		traces := 0
		for pc, op := range code {
			switch op.code {
			case opBrEq, opBrNe, opBrLt, opBrLe, opBrGt, opBrGe, opJmp:
				// A target stays inside its own pass, at most on its opHalt.
				end := len(code)
				if pc < int(sw.recircPC) {
					end = int(sw.recircPC)
				}
				if int(op.dst) <= pc || int(op.dst) >= end {
					t.Fatalf("%s op %d: target %d outside (%d, %d)", prog.Name, pc, op.dst, pc, end)
				}
			case opApply:
				x := op.aux
				if x == nil || x.tbl == nil || x.tbl.sites[x.site] != uint32(pc) {
					t.Fatalf("%s op %d: apply without its table site", prog.Name, pc)
				}
				if (x.tbl.def.DefaultAction != "") != (x.def != nil) {
					t.Fatalf("%s op %d: default action %q has no trace", prog.Name, pc, x.tbl.def.DefaultAction)
				}
				check := func(what string, tr []uop) {
					traces++
					if len(tr) == 0 {
						t.Fatalf("%s op %d: empty %s trace", prog.Name, pc, what)
					}
					if last := tr[len(tr)-1].code; last != opExit && last != opHalt && last != opJmp {
						t.Fatalf("%s op %d: %s trace falls off its end (%v)", prog.Name, pc, what, last)
					}
					for i, u := range tr {
						switch {
						case u.code == opExit:
							if int(u.dst) <= pc || int(u.dst) >= len(code) {
								t.Fatalf("%s op %d: %s trace op %d exits to %d", prog.Name, pc, what, i, u.dst)
							}
						case u.code >= opBrEq && u.code <= opJmp:
							if int(u.dst) <= i || int(u.dst) >= len(tr) {
								t.Fatalf("%s op %d: %s trace op %d targets %d of %d", prog.Name, pc, what, i, u.dst, len(tr))
							}
						case u.code == opApply:
							t.Fatalf("%s op %d: %s trace applies a table", prog.Name, pc, what)
						}
					}
				}
				if x.def != nil {
					check("default", x.def)
				}
				for _, e := range x.tbl.entries {
					check(e.Action, e.traces[x.site])
				}
			case opExit:
				t.Fatalf("%s op %d: exit in the generic stream", prog.Name, pc)
			case OpRegRead, OpRegWrite:
				if op.reg == nil {
					t.Fatalf("%s op %d: register op without resolved register", prog.Name, pc)
				}
			case OpSetEgress, OpDrop:
				t.Fatalf("%s op %d: %s must lower to mov", prog.Name, pc, op.code)
			}
		}
		if traces == 0 {
			t.Fatalf("%s: no trace checked", prog.Name)
		}
	}
}

// TestProcessBatch drives the batch entry point and checks it observes every
// output while reusing the switch's buffers.
func TestProcessBatch(t *testing.T) {
	prog, std := buildCounterProgram()
	sw := mustSwitch(t, prog, std)
	batch := []FrameIn{
		{TsNs: 0, Port: 2, Data: udpTo(packet.ParseIP4(10, 0, 0, 1))},
		{TsNs: 1, Port: 3, Data: []byte{1, 2, 3}}, // parse error: dropped
		{TsNs: 2, Port: 4, Data: udpTo(packet.ParseIP4(10, 0, 0, 2))},
	}
	var ports []uint16
	sw.ProcessBatch(batch, func(out FrameOut) {
		ports = append(ports, out.Port)
		if _, err := packet.Parse(out.Data); err != nil {
			t.Fatalf("batch output unparseable: %v", err)
		}
	})
	if !reflect.DeepEqual(ports, []uint16{2, 4}) {
		t.Fatalf("batch output ports = %v, want [2 4]", ports)
	}
	st := sw.Stats()
	if st.PktsIn != 3 || st.PktsOut != 2 || st.Dropped != 1 || st.ParseErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// nil emit processes for side effects only.
	sw.ProcessBatch(batch[:1], nil)
	if got := sw.Stats().PktsOut; got != 3 {
		t.Fatalf("PktsOut = %d after nil-emit batch, want 3", got)
	}
}

// TestUopSize pins the micro-op's footprint. Several switch instances of the
// daemon program — a ~1300-op generic stream plus a ~500-op trace per bound
// entry — are resident at once (engine shards plus references), so a wider
// op shows up directly in peak RSS: at 216 bytes the two-shard daemon gained
// 1.8 MB. Rare operands belong behind uop.aux.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(uop{}); got > 48 {
		t.Fatalf("uop is %d bytes, budget 48", got)
	}
}

// buildLoweringProgram exercises what the lowering must get right beyond
// control-flow shape: one action (count_at) reached from a table entry, from
// the table's default with its own args, and from call sites with different
// constant args; a two-parameter action; constants repeated across ops,
// conditions and call args; and a branching recirculation pass.
func buildLoweringProgram() (*Program, StdFields) {
	p := NewProgram("lowering")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 32)
	tmp := p.AddField("meta.tmp", 64)
	flag := p.AddField("meta.recirc", 1)

	p.AddRegister("counters", 64, 64)

	p.AddAction(NewAction("count_at", 1,
		Mov(idx, P(0)),
		RegRead(tmp, "counters", F(idx)),
		Add(tmp, F(tmp), C(1)),
		RegWrite("counters", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("add_at", 2,
		Mov(idx, P(0)),
		RegRead(tmp, "counters", F(idx)),
		Add(tmp, F(tmp), P(1)),
		RegWrite("counters", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("mark", 0, Mov(flag, C(1))))
	p.AddAction(NewAction("noop", 0))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))

	p.AddTable(&TableDef{
		Name:          "bind",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchLPM}},
		ActionNames:   []string{"count_at", "add_at", "noop"},
		DefaultAction: "count_at",
		DefaultArgs:   []uint64{11},
		MaxEntries:    8,
	})
	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Apply("bind"),
			Call("count_at", 2),
			Call("add_at", 3, 7),
			If(Cond{A: F(std.UDPDport), Op: CmpEq, B: C(7)}, Call("mark")),
		),
		Call("reflect"),
	}
	p.SetRecirc(flag, []Stmt{
		If(Cond{A: F(std.IPv4Proto), Op: CmpEq, B: C(17)},
			Call("count_at", 20),
		).WithElse(
			Call("count_at", 21),
		),
	})
	return p, std
}

// lowerRig drives one switch of the lowering program through the compiled
// plan or the tree walker and logs everything observable per frame.
type lowerRig struct {
	t    *testing.T
	tree bool
	sw   *Switch
	ts   uint64
	log  []string
}

func newLowerRig(t *testing.T, tree bool) *lowerRig {
	prog, std := buildLoweringProgram()
	return &lowerRig{t: t, tree: tree, sw: mustSwitch(t, prog, std)}
}

// newLowerRigOn drives an existing switch of the lowering program.
func newLowerRigOn(t *testing.T, sw *Switch) *lowerRig { return &lowerRig{t: t, sw: sw} }

// send processes one UDP frame to dst:dport on the rig's current switch.
func (r *lowerRig) send(dst packet.IP4, dport uint16) {
	frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, dport, 8).Serialize()
	process := r.sw.ProcessFrame
	if r.tree {
		process = r.sw.processFrameTree
	}
	outs := process(r.ts, 3, frame)
	r.ts++
	line := fmt.Sprintf("outs=%d digests=%v", len(outs), drainDigests(r.sw))
	for _, o := range outs {
		line += fmt.Sprintf(" port=%d data=%x", o.Port, o.Data)
	}
	r.log = append(r.log, line)
}

func (r *lowerRig) insert(dst packet.IP4, prefix int, action string, args ...uint64) EntryID {
	r.t.Helper()
	id, err := r.sw.InsertEntry("bind", []MatchValue{{Value: uint64(dst), PrefixLen: prefix}}, 0, action, args)
	if err != nil {
		r.t.Fatal(err)
	}
	return id
}

func (r *lowerRig) delete(id EntryID) {
	r.t.Helper()
	if err := r.sw.DeleteEntry("bind", id); err != nil {
		r.t.Fatal(err)
	}
}

func (r *lowerRig) cells() []uint64 {
	reg, err := r.sw.Register("counters")
	if err != nil {
		r.t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestModifyRebindsCompiledAction checks the rule-install-time resolution:
// after a rebind (a delete and an insert of the same match) the compiled
// path must run the new action.
func TestModifyRebindsCompiledAction(t *testing.T) {
	prog, std := buildCounterProgram()
	sw := mustSwitch(t, prog, std)
	match := []MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}}
	id, err := sw.InsertEntry("bind", match, 0, "count_at", []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))
	for i, rebind := range []struct {
		action string
		args   []uint64
	}{{"count_at", []uint64{7}}, {"noop", nil}} {
		if err := sw.DeleteEntry("bind", id); err != nil {
			t.Fatal(err)
		}
		if id, err = sw.InsertEntry("bind", match, 0, rebind.action, rebind.args); err != nil {
			t.Fatal(err)
		}
		sw.ProcessFrame(uint64(i+1), 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))
	}

	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Read(3); v != 1 {
		t.Fatalf("cell 3 = %d, want 1", v)
	}
	if v, _ := reg.Read(7); v != 1 {
		t.Fatalf("cell 7 = %d, want 1 (a rebind must run the new action)", v)
	}
}

// TestLoweringCases replays scenarios that stress the lowering — argument
// binding by every route, rebinding between packets, recirculation, restore
// across instances — through the micro-op stream and the tree walker, and
// demands identical frames, digests, counters and state, plus the cell values
// each scenario must produce.
func TestLoweringCases(t *testing.T) {
	hit := packet.ParseIP4(10, 0, 5, 1)    // under 10.0.5.0/24
	miss := packet.ParseIP4(172, 16, 0, 1) // no entry: the default action
	cases := []struct {
		name  string
		drive func(r *lowerRig)
		want  map[int]uint64 // counters cell → value (others zero)
	}{
		{
			// Every call site folds its own args: the same body increments
			// cell 2 via count_at(2) and adds 7 to cell 3 via add_at(3, 7).
			name:  "call-site arg folding",
			drive: func(r *lowerRig) { r.send(miss, 80); r.send(miss, 80) },
			want:  map[int]uint64{11: 2, 2: 2, 3: 14},
		},
		{
			// count_at runs from an entry (arg 9) and from a call site
			// (arg 2) in the same packet; the entry's trace folds its own
			// argument and copies the call site's.
			name: "action bound by entry and by call",
			drive: func(r *lowerRig) {
				r.insert(packet.ParseIP4(10, 0, 5, 0), 24, "count_at", 9)
				r.send(hit, 80)
			},
			want: map[int]uint64{9: 1, 2: 1, 3: 7},
		},
		{
			name: "default-action args on a miss, entry args on a hit",
			drive: func(r *lowerRig) {
				r.insert(packet.ParseIP4(10, 0, 5, 0), 24, "add_at", 30, 5)
				r.send(miss, 80)
				r.send(hit, 80)
				r.send(miss, 80)
			},
			want: map[int]uint64{11: 2, 30: 5, 2: 3, 3: 21},
		},
		{
			// The entry is rebound between packets, delete then insert, to
			// new args and then a new action; a stale trace would hit the
			// old cell.
			name: "rebind between packets",
			drive: func(r *lowerRig) {
				id := r.insert(packet.ParseIP4(10, 0, 5, 0), 24, "count_at", 40)
				r.send(hit, 80)
				r.delete(id)
				id = r.insert(packet.ParseIP4(10, 0, 5, 0), 24, "count_at", 41)
				r.send(hit, 80)
				r.delete(id)
				id = r.insert(packet.ParseIP4(10, 0, 5, 0), 24, "add_at", 42, 100)
				r.send(hit, 80)
				r.delete(id)
				r.send(hit, 80)
			},
			want: map[int]uint64{40: 1, 41: 1, 42: 100, 11: 1, 2: 4, 3: 28},
		},
		{
			// dport 7 raises the flag; the recirculation pass branches on
			// the protocol (UDP → cell 20) with targets of its own.
			name: "recirculation pass",
			drive: func(r *lowerRig) {
				r.send(miss, 7)
				r.send(miss, 80)
				r.send(miss, 7)
			},
			want: map[int]uint64{20: 2, 11: 3, 2: 3, 3: 21},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, tree := newLowerRig(t, false), newLowerRig(t, true)
			tc.drive(compiled)
			tc.drive(tree)
			if !reflect.DeepEqual(compiled.log, tree.log) {
				t.Fatalf("per-frame behaviour differs:\ncompiled %q\ntree     %q", compiled.log, tree.log)
			}
			if sc, st := compiled.sw.Stats(), tree.sw.Stats(); sc != st {
				t.Fatalf("stats differ: compiled %+v, tree %+v", sc, st)
			}
			if sc, st := compiled.sw.Snapshot(), tree.sw.Snapshot(); !reflect.DeepEqual(sc, st) {
				t.Fatalf("state differs:\ncompiled %+v\ntree     %+v", sc, st)
			}
			for i, v := range compiled.cells() {
				if v != tc.want[i] {
					t.Fatalf("cell %d = %d, want %d", i, v, tc.want[i])
				}
			}
		})
	}
}

// TestConstPoolDedup pins the frame layout: the fields, then each distinct
// constant once — whether it came from an op, a condition, a call-site
// argument or a trace's folded entry arguments.
func TestConstPoolDedup(t *testing.T) {
	prog, std := buildLoweringProgram()
	sw := mustSwitch(t, prog, std)
	newLowerRigOn(t, sw).insert(packet.ParseIP4(10, 0, 5, 0), 24, "add_at", 3, 30)
	nF := len(prog.Fields)
	got := append([]uint64(nil), sw.frame[nF:]...)
	seen := make(map[uint64]bool)
	for _, g := range got {
		if seen[g] {
			t.Fatalf("constant %d appears twice in the pool %v", g, got)
		}
		seen[g] = true
	}
	// The generic stream's constants, the default count_at(11)'s and the
	// entry's add_at(3, 30)'s.
	for _, w := range []uint64{1, 2, 3, 7, 17, 20, 21, 11, 30} {
		if !seen[w] {
			t.Fatalf("constant %d missing from the pool %v", w, got)
		}
	}
	// Processing never writes the pool: a packet leaves it as compiled.
	sw.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))
	sw.ProcessFrame(1, 1, udpTo(packet.ParseIP4(10, 0, 0, 1)))
	if !reflect.DeepEqual(got, append([]uint64(nil), sw.frame[nF:]...)) {
		t.Fatalf("constant pool changed by a packet: %v → %v", got, sw.frame[nF:])
	}
}

// TestSetDeparserReadsAfterNewSwitch pins that a late declaration fails
// loudly: the liveness every switch of the program shares was computed when
// the first switch was built, without it.
func TestSetDeparserReadsAfterNewSwitch(t *testing.T) {
	prog, std := buildKitchenSink()
	prog.SetDeparserReads(std.InPort)
	mustSwitch(t, prog, std)
	defer func() {
		if recover() == nil {
			t.Fatal("SetDeparserReads after the first switch did not panic")
		}
	}()
	prog.SetDeparserReads(std.WireLen)
}
