package p4

import (
	"slices"
	"sync"
)

// This file specialises table entries at rule-install time. An entry's
// action and arguments are constant from InsertEntry until ModifyEntry, so
// the switch compiles, per apply site of the entry's table, one trace:
//
//   - the bound action's body, its arguments as pool constants;
//   - then a copy of the generic stream from the op after the apply to the
//     end of the site's region — the next apply or opHalt;
//   - folded: constant and copy propagation, branch folding, the algebraic
//     identities ×1, +0 and shift by 0, dead-store elimination and the
//     removal of jumps to the next op.
//
// A hit (or a miss into the table's default, whose trace NewSwitch builds)
// enters the trace at its first op; the trace exits into the generic stream
// at a pc after its apply, or halts. Internal targets are strictly forward,
// so a packet's walk stays bounded (see run). Observable behaviour is the
// generic stream's, packet by packet: outputs, digests in order, registers,
// every counter — a register write is never removed, a register read only
// when its index is a constant in range — and every field live at the end of
// the pipeline (Program.SetDeparserReads). Hardware compiles a program once,
// so none of this moves stages, SRAM or the emitted program; only the
// simulator's per-packet work shrinks.

// plan is what specialisation needs to know about a program's generic
// stream: where each apply's region ends, and the fields live into each pc a
// trace can leave to — the region ends, and the exits past them. It is
// computed once per Program and shared by every switch running it — the
// shards of a ShardedSwitch, a differential test's pair.
type plan struct {
	n     int       // length of the stream it describes
	std   StdFields // the standard fields it was computed with
	nF    uint32    // fields
	words int       // uint64 words per field set
	// ends maps each apply's pc to the end of its region: the pc of the next
	// apply or opHalt.
	ends map[uint32]uint32
	// live holds the fields live into each pc from lo on, words per pc: no
	// trace leaves to a pc before the earliest region end.
	lo   uint32
	live []uint64
}

// planMu guards Program.plan; plans are built at NewSwitch, never per packet.
var planMu sync.Mutex

// planFor returns the program's plan, computing it from sw's freshly lowered
// stream the first time (or again, should the program have changed since).
func planFor(sw *Switch) *plan {
	planMu.Lock()
	defer planMu.Unlock()
	if p := sw.prog.plan; p != nil && p.n == len(sw.code) && p.std == sw.std {
		return p
	}
	p := newPlan(sw)
	sw.prog.plan = p
	return p
}

// setBit and hasBit address a field set.
func setBit(s []uint64, f uint32)      { s[f/64] |= 1 << (f % 64) }
func hasBit(s []uint64, f uint32) bool { return s[f/64]&(1<<(f%64)) != 0 }

// orInto adds every field of src to dst.
func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// writesDst reports whether op code c writes its dst field.
func writesDst(c OpCode) bool {
	return c <= OpRegRead || c == OpHash
}

// addUses adds the fields an op of code with operand slots a and b reads to
// s — a slot from nF up is a constant — or for a digest, aux's fields.
func addUses(s []uint64, code OpCode, a, b uint32, aux *uopAux, nF uint32) {
	switch {
	case code == OpDigest:
		for _, f := range aux.fields {
			setBit(s, uint32(f))
		}
		return
	case code >= opJmp:
		return
	}
	if a < nF {
		setBit(s, a)
	}
	if hasB(code) && b < nF {
		setBit(s, b)
	}
}

// newPlan finds the region ends, then computes liveness in one backward
// sweep down to the earliest of them: every target is forward, so the sweep
// meets each pc after all of its successors. Live at the recirculation
// pass's opHalt are the standard fields, the recirculation flag and the
// declared deparser reads; at the main pass's, those and what the
// recirculation pass reads.
func newPlan(sw *Switch) *plan {
	prog := sw.prog
	code := sw.code
	nF := uint32(len(prog.Fields))
	w := (int(nF) + 63) / 64
	p := &plan{n: len(code), std: sw.std, nF: nF, words: w, ends: make(map[uint32]uint32)}
	end := uint32(len(code))
	p.lo = end
	for pc := len(code) - 1; pc >= 0; pc-- {
		switch code[pc].code {
		case opApply:
			p.ends[uint32(pc)] = end
			p.lo = min(p.lo, end)
			end = uint32(pc)
		case opHalt:
			end = uint32(pc)
		}
	}

	base := make([]uint64, w)
	for _, f := range sw.std.all() {
		setBit(base, uint32(f))
	}
	if prog.hasRecirc {
		setBit(base, uint32(prog.RecircField))
	}
	for _, f := range prog.deparserReads {
		setBit(base, uint32(f))
	}
	p.live = make([]uint64, (len(code)-int(p.lo))*w)
	for pc := len(code) - 1; pc >= int(p.lo); pc-- {
		u := &code[pc]
		live := p.at(uint32(pc))
		switch {
		case u.code == opHalt:
			copy(live, base)
			if prog.hasRecirc && uint32(pc) == sw.recircPC-1 {
				orInto(live, p.at(sw.recircPC))
			}
			continue
		case u.code == opJmp:
			copy(live, p.at(u.dst))
			continue
		}
		copy(live, p.at(uint32(pc+1)))
		switch {
		case isBranch(u.code):
			orInto(live, p.at(u.dst))
		case u.code == opApply:
			// The apply may run any action its table binds, and none of
			// them need write a given field: it adds what they read and
			// kills nothing.
			t := u.aux.tbl
			for _, k := range t.def.Keys {
				setBit(live, uint32(k.Field))
			}
			names := t.def.ActionNames
			if t.def.DefaultAction != "" {
				names = append(names[:len(names):len(names)], t.def.DefaultAction)
			}
			for _, an := range names {
				a, _ := prog.action(an)
				for _, op := range a.Ops {
					for _, r := range [2]Ref{op.A, op.B} {
						if r.Kind == RefField {
							setBit(live, uint32(r.Field))
						}
					}
					for _, f := range op.Fields {
						setBit(live, uint32(f))
					}
				}
			}
		case writesDst(u.code):
			live[u.dst/64] &^= 1 << (u.dst % 64)
		}
		addUses(live, u.code, u.a, u.b, u.aux, nF)
	}
	return p
}

// at returns the fields live into generic pc, which is at least lo.
func (p *plan) at(pc uint32) []uint64 {
	i := int(pc-p.lo) * p.words
	return p.live[i : i+p.words]
}

// fact is what the forward pass knows about one field: its value (konst), or
// that it holds the same value as field v.
type fact struct {
	v     uint64
	f     uint32
	konst bool
}

// facts is the state at the op being folded: a short list, indexed by field
// so a lookup is one load, with a count per field of the facts that copy it.
type facts struct {
	list   []fact
	pos    []int32 // field → index into list, or −1
	copies []int32 // field → facts copying it
	mark   []uint32
	epoch  uint32
}

func newFacts(nF uint32) *facts {
	s := &facts{pos: make([]int32, nF), copies: make([]int32, nF), mark: make([]uint32, nF)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *facts) get(f uint32) (fact, bool) {
	if i := s.pos[f]; i >= 0 {
		return s.list[i], true
	}
	return fact{}, false
}

func (s *facts) del(i int32) {
	x := s.list[i]
	if !x.konst {
		s.copies[x.v]--
	}
	s.pos[x.f] = -1
	last := int32(len(s.list) - 1)
	if i != last {
		s.list[i] = s.list[last]
		s.pos[s.list[i].f] = i
	}
	s.list = s.list[:last]
}

func (s *facts) set(x fact) {
	s.kill(x.f)
	s.pos[x.f] = int32(len(s.list))
	s.list = append(s.list, x)
	if !x.konst {
		s.copies[x.v]++
	}
}

// kill forgets f, and every field known to copy it.
func (s *facts) kill(f uint32) {
	if i := s.pos[f]; i >= 0 {
		s.del(i)
	}
	for i := int32(len(s.list)) - 1; s.copies[f] > 0; i-- {
		if x := s.list[i]; !x.konst && uint32(x.v) == f {
			s.del(i)
		}
	}
}

// reset forgets everything and then knows st.
func (s *facts) reset(st []fact) {
	for _, x := range s.list {
		s.pos[x.f] = -1
		if !x.konst {
			s.copies[x.v] = 0
		}
	}
	s.list = append(s.list[:0], st...)
	for i, x := range s.list {
		s.pos[x.f] = int32(i)
		if !x.konst {
			s.copies[x.v]++
		}
	}
}

// meet keeps the facts s shares with st.
func (s *facts) meet(st []fact) {
	s.epoch++
	for _, y := range st {
		if x, ok := s.get(y.f); ok && x == y {
			s.mark[y.f] = s.epoch
		}
	}
	for i := int32(len(s.list)) - 1; i >= 0; i-- {
		if s.mark[s.list[i].f] != s.epoch {
			s.del(i)
		}
	}
}

// pending is a forward target not reached yet: the meet of the states of
// the branches that name it.
type pending struct {
	at int
	st []fact
}

// wop is an op of out: a uop without its pointers, so the scratch a trace
// is folded in costs the collector nothing. src says where the op came
// from, for its register and aux: a generic pc, or ^i for body op i.
type wop struct {
	code      OpCode
	dst, a, b uint32
	mask      uint64
	src       int32
}

// tracer builds traces. One serves a whole install — an entry's sites, a
// switch's defaults — reusing its scratch from trace to trace; nothing it
// allocates outlives the install but the traces themselves.
type tracer struct {
	sw         *Switch
	p          *plan
	nF         uint32
	body       []top
	start, end uint32 // the region [start, end) of the generic stream

	// out is the folded trace. A constant operand of the trace's own is
	// local|i, standing for vals[i], until emit gives it a pool slot; a
	// branch's target is an index into out, or with mask set a generic pc it
	// exits to.
	out  []wop
	vals []uint64

	t     top // the op being folded
	cur   *facts
	pend  []pending
	free  [][]fact // pending states' buffers, recycled
	at    []int32  // input index → index into out
	live  []uint64 // dse: fields live into each op
	idx   []uint32 // compact: old index → new
	reach []bool   // tidy: ops some path reaches
}

func newTracer(sw *Switch) *tracer {
	return &tracer{sw: sw, p: sw.plan, nF: sw.plan.nF, cur: newFacts(sw.plan.nF)}
}

// build compiles the trace of the apply at generic pc for an action body
// already lowered with constant arguments, taking references on the pool
// constants it needs and appending their slots to consts.
func (b *tracer) build(pc uint32, body []top, consts []uint32) ([]uop, []uint32) {
	b.body = body
	b.start, b.end = pc+1, b.p.ends[pc]
	b.out, b.vals = b.out[:0], b.vals[:0]
	b.forward()
	b.dse()
	for b.tidy() {
	}
	return b.emit(consts)
}

// input loads op i of the unfolded trace into t: the body, then the region.
func (b *tracer) input(i int, t *top) {
	if i < len(b.body) {
		*t = b.body[i]
		return
	}
	b.sw.lift(&b.sw.code[b.start+uint32(i-len(b.body))], t)
}

// index maps a generic pc inside the region to its input index.
func (b *tracer) index(pc uint32) int { return len(b.body) + int(pc-b.start) }

// exitTo returns the op that leaves the trace for generic pc: an exit, or
// the opHalt there (whose dst keeps the pc, for the live set).
func (b *tracer) exitTo(pc uint32) wop {
	if b.sw.code[pc].code == opHalt {
		return wop{code: opHalt, dst: pc}
	}
	return wop{code: opExit, dst: pc}
}

// reg and aux recover the pointers of out op w.
func (b *tracer) reg(w *wop) *Register {
	if w.src < 0 {
		return b.body[^w.src].reg
	}
	return b.sw.code[w.src].reg
}

func (b *tracer) aux(w *wop) *uopAux {
	if w.src < 0 {
		return b.body[^w.src].aux
	}
	return b.sw.code[w.src].aux
}

// local marks an operand slot of out that stands for vals[slot&^local].
const local = 1 << 31

// slot encodes an operand for out: a field, a pool slot of the generic
// stream (pinned for the switch's life, so a trace needs no reference on
// it), or a constant of the trace's own.
func (b *tracer) slot(o operand) uint32 {
	switch {
	case !o.konst:
		return uint32(o.v)
	case o.slot != 0:
		return o.slot
	}
	if i, ok := b.sw.poolIdx[o.v]; ok && i < b.sw.pinned {
		return b.nF + i
	}
	for i, v := range b.vals {
		if v == o.v {
			return local | uint32(i)
		}
	}
	b.vals = append(b.vals, o.v)
	return local | uint32(len(b.vals)-1)
}

// value returns the constant a slot of out that is not a field holds.
func (b *tracer) value(s uint32) uint64 {
	if s&local != 0 {
		return b.vals[s&^local]
	}
	return b.sw.frame[s]
}

// addPending records that input index at is reached with the current state.
func (b *tracer) addPending(at int) {
	i := 0
	for i < len(b.pend) && b.pend[i].at < at {
		i++
	}
	if i < len(b.pend) && b.pend[i].at == at {
		st := b.pend[i].st[:0]
		for _, y := range b.pend[i].st {
			if x, ok := b.cur.get(y.f); ok && x == y {
				st = append(st, y)
			}
		}
		b.pend[i].st = st
		return
	}
	var buf []fact
	if n := len(b.free); n > 0 {
		buf, b.free = b.free[n-1], b.free[:n-1]
	}
	b.pend = append(b.pend, pending{})
	copy(b.pend[i+1:], b.pend[i:])
	b.pend[i] = pending{at: at, st: append(buf[:0], b.cur.list...)}
}

// forward walks the unfolded trace in order — every target is forward, so
// each op is visited after all of its predecessors — propagating facts,
// folding, and emitting the reachable ops into out. A target at or past the
// region's end becomes an exit.
func (b *tracer) forward() {
	n := b.index(b.end)
	if cap(b.at) < n {
		b.at = make([]int32, n)
	}
	b.at = b.at[:n]
	b.cur.reset(nil)
	reach := true
	jump := func(dst uint32) {
		reach = false
		if dst >= b.end {
			b.out = append(b.out, b.exitTo(dst))
			return
		}
		b.out = append(b.out, wop{code: opJmp, dst: uint32(b.index(dst))})
		b.addPending(b.index(dst))
	}
	for i := 0; ; i++ {
		if len(b.pend) > 0 && b.pend[0].at == i {
			if reach {
				b.cur.meet(b.pend[0].st)
			} else {
				b.cur.reset(b.pend[0].st)
				reach = true
			}
			b.free = append(b.free, b.pend[0].st)
			b.pend = b.pend[1:]
		}
		if !reach {
			if len(b.pend) == 0 {
				break
			}
			i = b.pend[0].at - 1
			continue
		}
		if i == n {
			b.out = append(b.out, b.exitTo(b.end))
			break
		}
		b.at[i] = int32(len(b.out))
		t := &b.t
		b.input(i, t)
		switch {
		case t.code == opJmp:
			jump(t.dst)
		case isBranch(t.code):
			b.subst(&t.a)
			b.subst(&t.b)
			if jumps, known := decide(t); known {
				if jumps {
					jump(t.dst)
				}
				continue
			}
			u := wop{code: t.code, a: b.slot(t.a), b: b.slot(t.b), dst: t.dst, mask: 1}
			if t.dst < b.end {
				u.dst, u.mask = uint32(b.index(t.dst)), 0
				b.addPending(int(u.dst))
			}
			b.out = append(b.out, u)
		default:
			if b.fold(t) {
				var x, y uint32
				if ra, rb := t.reads(); ra {
					x = b.slot(t.a)
					if rb {
						y = b.slot(t.b)
					}
				}
				src := int32(b.start) + int32(i-len(b.body))
				if i < len(b.body) {
					src = ^int32(i)
				}
				w := wop{code: t.code, dst: t.dst, a: x, b: y, mask: t.mask, src: src}
				if t.code == OpHash {
					w.b = uint32(t.b.v)
				}
				b.out = append(b.out, w)
			}
		}
	}
	for i := range b.out {
		if u := &b.out[i]; (u.code == opJmp || isBranch(u.code)) && u.mask == 0 {
			u.dst = uint32(b.at[u.dst])
		}
	}
}

// subst rewrites a field operand the state knows: to its constant, or to the
// field it copies.
func (b *tracer) subst(o *operand) {
	if o.konst {
		return
	}
	if x, ok := b.cur.get(uint32(o.v)); ok {
		*o = operand{v: x.v, konst: x.konst}
	}
}

// decide folds a branch whose outcome the operands already fix; jumps
// reports whether it is taken (a branch jumps when its comparison is false).
func decide(t *top) (jumps, known bool) {
	var a, b uint64
	switch {
	case t.a.konst && t.b.konst:
		a, b = t.a.v, t.b.v
	case !t.a.konst && !t.b.konst && t.a.v == t.b.v:
	default:
		return false, false
	}
	holds := false
	switch t.code {
	case opBrEq:
		holds = a == b
	case opBrNe:
		holds = a != b
	case opBrLt:
		holds = a < b
	case opBrLe:
		holds = a <= b
	case opBrGt:
		holds = a > b
	case opBrGe:
		holds = a >= b
	}
	return !holds, true
}

// eval computes a pure op on constant operands exactly as run does.
func eval(t *top) uint64 {
	a, b, m := t.a.v, t.b.v, t.mask
	switch t.code {
	case OpMov:
		return a & m
	case OpAdd:
		return (a + b) & m
	case OpSub:
		return (a - b) & m
	case OpMul:
		return (a * b) & m
	case OpSatAdd:
		if sum := a + b; sum >= a && sum <= m {
			return sum
		}
		return m
	case OpSatSub:
		if b >= a {
			return 0
		}
		return (a - b) & m
	case OpAnd:
		return a & b & m
	case OpOr:
		return (a | b) & m
	case OpXor:
		return (a ^ b) & m
	case OpNot:
		return ^a & m
	case OpShl:
		if b >= 64 {
			return 0
		}
		return a << b & m
	case OpShr:
		if b >= 64 {
			return 0
		}
		return a >> b & m
	default: // OpHash
		return HashValue(int(b), a) & m
	}
}

// fold propagates the state through one straight-line op, rewriting it to
// something cheaper where the operands allow; it reports whether the op is
// still needed.
func (b *tracer) fold(t *top) bool {
	switch t.code {
	case OpDigest:
		return true
	case OpRegWrite:
		b.subst(&t.a)
		b.subst(&t.b)
		return true
	case OpRegRead:
		b.subst(&t.a)
		b.cur.kill(t.dst)
		return true
	}
	b.subst(&t.a)
	if t.code != OpHash {
		b.subst(&t.b)
	}
	if t.a.konst && (t.b.konst || !hasB(t.code)) {
		t.a = operand{v: eval(t), konst: true}
		t.code, t.b = OpMov, operand{}
	} else {
		identity(t)
	}
	if t.code != OpMov {
		b.cur.kill(t.dst)
		return true
	}
	if t.a.konst {
		b.cur.set(fact{f: t.dst, v: t.a.v & t.mask, konst: true})
		return true
	}
	src := uint32(t.a.v)
	whole := t.mask&b.sw.fieldMask[src] == b.sw.fieldMask[src] // the move copies src exactly
	if src == t.dst && whole {
		return false // a field moved onto itself
	}
	if whole {
		b.cur.set(fact{f: t.dst, v: uint64(src)})
	} else {
		b.cur.kill(t.dst)
	}
	return true
}

// identity rewrites an op with one constant operand that leaves the other
// unchanged (x+0, x·1, x<<0, …) into a move, and one whose result it fixes
// (x·0, x&0, 0−̇x) into a constant.
func identity(t *top) {
	a, b, m := t.a, t.b, t.mask
	is := func(o operand, v uint64) bool { return o.konst && o.v == v }
	mov := func(o operand) { t.code, t.a, t.b = OpMov, o, operand{} }
	zero := func() { mov(operand{konst: true}) }
	switch t.code {
	case OpAdd, OpOr, OpXor:
		if is(b, 0) {
			mov(a)
		} else if is(a, 0) {
			mov(b)
		}
	case OpSub, OpShl, OpShr:
		if is(b, 0) {
			mov(a)
		} else if t.code != OpSub && b.konst && b.v >= 64 {
			zero()
		}
	case OpMul:
		if is(b, 1) {
			mov(a)
		} else if is(a, 1) {
			mov(b)
		} else if is(a, 0) || is(b, 0) {
			zero()
		}
	case OpAnd:
		if b.konst && b.v&m == m {
			mov(a)
		} else if a.konst && a.v&m == m {
			mov(b)
		} else if b.konst && b.v&m == 0 || a.konst && a.v&m == 0 {
			zero()
		}
	case OpSatSub:
		if is(b, 0) {
			mov(a)
		} else if is(a, 0) {
			zero()
		}
	}
}

// uses adds the fields out op u reads to s.
func (b *tracer) uses(s []uint64, u *wop) {
	var x *uopAux
	if u.code == OpDigest {
		x = b.aux(u)
	}
	addUses(s, u.code, u.a, u.b, x, b.nF)
}

// removable reports whether an op of out whose destination is dead can go:
// it must have no effect but its write, so a register read stays unless its
// index is a constant in range (an out-of-range read counts a runtime error).
func (b *tracer) removable(u *wop) bool {
	if u.code == OpRegRead {
		return u.a >= b.nF && b.value(u.a) < uint64(len(b.reg(u).cells))
	}
	return writesDst(u.code)
}

// dead marks an op dse or tidy removed.
const dead = OpCode(255)

// dse removes, in one backward pass, every removable op whose destination is
// dead where it is written: at an exit or opHalt, live is the generic
// stream's live-in at that pc.
func (b *tracer) dse() {
	w := b.p.words
	need := (len(b.out) + 1) * w
	if cap(b.live) < need {
		b.live = make([]uint64, need)
	}
	b.live = b.live[:need]
	at := func(i uint32) []uint64 { return b.live[int(i)*w : int(i)*w+w] }
	clear(at(uint32(len(b.out))))
	for i := len(b.out) - 1; i >= 0; i-- {
		u := &b.out[i]
		live := at(uint32(i))
		switch {
		case u.code == opHalt || u.code == opExit:
			copy(live, b.p.at(u.dst))
		case u.code == opJmp:
			copy(live, at(u.dst))
		case isBranch(u.code):
			copy(live, at(uint32(i+1)))
			if u.mask != 0 {
				orInto(live, b.p.at(u.dst))
			} else {
				orInto(live, at(u.dst))
			}
			b.uses(live, u)
		default:
			copy(live, at(uint32(i+1)))
			if writesDst(u.code) {
				if !hasBit(live, u.dst) && b.removable(u) {
					u.code = dead
					continue
				}
				live[u.dst/64] &^= 1 << (u.dst % 64)
			}
			b.uses(live, u)
		}
	}
	b.compact()
}

// tidy threads jumps — a jump to an exit becomes the exit, a jump or branch
// to a jump takes its target — then removes what no path reaches any more
// and the jumps and branches to the next op; it reports whether it removed
// any.
func (b *tracer) tidy() (removed bool) {
	for i := len(b.out) - 1; i >= 0; i-- {
		u := &b.out[i]
		if u.code != opJmp && !isBranch(u.code) || u.mask != 0 {
			continue
		}
		if to := b.out[u.dst]; to.code == opJmp {
			u.dst = to.dst // already threaded: it is later
		}
		if to := b.out[u.dst]; u.code == opJmp && (to.code == opExit || to.code == opHalt) {
			*u = to
		}
	}
	if cap(b.reach) < len(b.out)+1 {
		b.reach = make([]bool, len(b.out)+1)
	}
	b.reach = b.reach[:len(b.out)+1]
	clear(b.reach)
	b.reach[0] = true
	for i := range b.out {
		u := &b.out[i]
		if !b.reach[i] {
			u.code, removed = dead, true
			continue
		}
		jumps := (u.code == opJmp || isBranch(u.code)) && u.mask == 0
		if jumps && int(u.dst) == i+1 {
			u.code, removed = dead, true
		} else if jumps {
			b.reach[u.dst] = true
		}
		if u.code != opJmp && u.code != opExit && u.code != opHalt {
			b.reach[i+1] = true
		}
	}
	b.compact()
	return removed
}

// compact drops dead ops and renumbers internal targets; a target that was
// dead lands on the op that now follows it.
func (b *tracer) compact() {
	if cap(b.idx) < len(b.out)+1 {
		b.idx = make([]uint32, len(b.out)+1)
	}
	b.idx = b.idx[:len(b.out)+1]
	k := 0
	for i := range b.out {
		b.idx[i] = uint32(k)
		if b.out[i].code != dead {
			if k != i {
				b.out[k] = b.out[i]
			}
			k++
		}
	}
	if k == len(b.out) {
		return
	}
	b.idx[len(b.out)] = uint32(k)
	b.out = b.out[:k]
	for i := range b.out {
		if u := &b.out[i]; (u.code == opJmp || isBranch(u.code)) && u.mask == 0 {
			u.dst = b.idx[u.dst]
		}
	}
}

// emit copies the folded trace out, appending a stub per generic pc a
// branch exits to and giving each constant a pool slot, with one reference
// per distinct constant of the entry.
func (b *tracer) emit(consts []uint32) ([]uop, []uint32) {
	n := len(b.out)
	for i := 0; i < n; i++ {
		if u := b.out[i]; !isBranch(u.code) || u.mask == 0 {
			continue
		}
		stub := b.exitTo(b.out[i].dst)
		k := n
		for k < len(b.out) && b.out[k] != stub {
			k++
		}
		if k == len(b.out) {
			b.out = append(b.out, stub)
		}
		b.out[i].dst, b.out[i].mask = uint32(k), 0
	}
	pool := make([]uint32, len(b.vals))
	for i, v := range b.vals {
		if c, ok := b.sw.poolIdx[v]; ok && slices.Contains(consts, b.nF+c) {
			pool[i] = b.nF + c // the entry's other trace holds it already
		} else {
			pool[i] = b.sw.acquire(v)
			consts = append(consts, pool[i])
		}
	}
	code := make([]uop, len(b.out))
	for i := range b.out {
		w := &b.out[i]
		u := uop{code: w.code, dst: w.dst, a: w.a, b: w.b, mask: w.mask}
		if w.code < opJmp {
			if w.code < opBrEq {
				u.reg, u.aux = b.reg(w), b.aux(w)
			}
			if u.a&local != 0 && w.code != OpDigest {
				u.a = pool[u.a&^local]
			}
			if u.b&local != 0 && w.code != OpHash && w.code != OpDigest {
				u.b = pool[u.b&^local]
			}
		}
		code[i] = u
	}
	return code, consts
}

// acquire returns a pool slot holding v and takes a reference on it: the
// slot that already holds v, else a free one, else a new one — growing the
// pool reallocates the frame and re-points the context at it. Called with
// the pipeline lock held (or before the switch is shared).
func (sw *Switch) acquire(v uint64) uint32 {
	nF := len(sw.prog.Fields)
	i, ok := sw.poolIdx[v]
	if !ok {
		if n := len(sw.poolFree); n > 0 {
			i, sw.poolFree = sw.poolFree[n-1], sw.poolFree[:n-1]
		} else {
			i = uint32(len(sw.poolRefs))
			sw.poolRefs = append(sw.poolRefs, 0)
			sw.frame = append(sw.frame, 0)
			sw.scratch.fields = sw.frame[:nF:nF]
		}
		sw.frame[nF+int(i)] = v
		sw.poolIdx[v] = i
	}
	sw.poolRefs[i]++
	return uint32(nF) + i
}

// release gives back the pool references an entry's traces held.
func (sw *Switch) release(consts []uint32) {
	nF := uint32(len(sw.prog.Fields))
	for _, s := range consts {
		i := s - nF
		if sw.poolRefs[i]--; sw.poolRefs[i] == 0 {
			delete(sw.poolIdx, sw.frame[s])
			sw.poolFree = append(sw.poolFree, i)
		}
	}
}

// specialise builds an entry's traces, one per apply site of its table, and
// returns them with the pool slots they hold.
func (sw *Switch) specialise(t *table, action string, args []uint64) ([][]uop, []uint32) {
	a, _ := sw.prog.action(action)
	body := sw.lowerAction(a, args)
	b := newTracer(sw)
	traces := make([][]uop, len(t.sites))
	var consts []uint32
	for i, pc := range t.sites {
		traces[i], consts = b.build(pc, body, consts)
	}
	return traces, consts
}
