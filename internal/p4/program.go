// Package p4 is a behavioral-model-style simulator of a P4 programmable
// switch, the substrate the Stat4 library runs on. A Program declares
// metadata fields, register arrays, actions and match-action tables, plus a
// control flow of table applies and branches; a Switch interprets the
// program for every frame.
//
// The simulator enforces the operational restrictions that shaped the
// paper's algorithms, by construction and by a validation pass:
//
//   - the action language has no division, modulo, floating point or loops —
//     only moves, adds and subtracts (wrapping or saturating), bitwise logic
//     and shifts;
//   - shift amounts must be compile-time constants or control-plane-installed
//     action parameters, never packet-dependent values, matching hardware
//     barrel shifters;
//   - control flow is straight-line with nested ifs; there is no way to
//     express iteration or recirculation;
//   - state lives in register arrays with bounded cells and widths.
//
// The control plane manipulates tables at runtime (insert, modify, delete)
// without touching the program, which is how Stat4's binding tables retune
// the tracked distributions on the fly. Alerts leave the data plane as
// digests on a bounded channel.
//
// Static analysis over the same representation produces the resource and
// dependency report of Section 4: register footprint, table footprint,
// match-rule dependencies and the longest sequential dependency chain.
package p4

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Width is a field or register cell width in bits (1..64).
type Width uint8

// FieldID indexes a metadata field declared in a Program.
type FieldID int

// FieldDef declares one metadata field.
type FieldDef struct {
	Name  string
	Width Width
}

// MergeKind classifies how a register array combines across replicas of the
// same program (the per-core shards of a ShardedSwitch, or switches sharing
// a monitoring role). It drives MergedSnapshot, not the data plane.
type MergeKind uint8

const (
	// MergeSum registers hold additive state — frequency counters, packet
	// and byte sums — whose cells add across replicas, masked to the cell
	// width. This is the default: the paper's scaled moments are built
	// entirely from such sums, which is what makes Stat4 state mergeable.
	MergeSum MergeKind = iota
	// MergeDerived registers hold values computed from other registers
	// (variance, standard deviation, percentile markers) or replica-local
	// scratch. They do not add: Σ(f+g)² ≠ Σf² + Σg². Merged snapshots zero
	// them; consumers recompute from the merged MergeSum state.
	MergeDerived
)

// String names the kind the way SetRegisterMerge callers write it.
func (k MergeKind) String() string {
	switch k {
	case MergeSum:
		return "MergeSum"
	case MergeDerived:
		return "MergeDerived"
	}
	return fmt.Sprintf("MergeKind(%d)", uint8(k))
}

// RegisterDef declares a register array.
type RegisterDef struct {
	Name  string
	Cells int
	Width Width
	Merge MergeKind

	// MergeExplicit records that the program builder declared the merge
	// kind with SetRegisterMerge rather than inheriting the MergeSum zero
	// value. The mergelaw static analysis requires every register of a
	// registered program to declare its kind explicitly, so a forgotten
	// declaration cannot silently make non-additive state look additive.
	MergeExplicit bool

	// MergeWhy documents why a MergeDerived register is not recomputed by
	// the program's snapshot canonicalizer (replica-local scratch, clock-
	// driven window state, hash-order bucket keys). mergelaw demands either
	// a place in the canonicalizer's recompute set or this note.
	MergeWhy string
}

// Bytes returns the array's memory footprint in bytes, rounding each cell up
// to whole bytes as an SRAM allocator would.
func (r RegisterDef) Bytes() int {
	return r.Cells * int((r.Width+7)/8)
}

// Program is a complete data-plane program: declarations plus the ingress
// control flow. Build one with NewProgram and the Add helpers, then hand it
// to NewShardedSwitch, which validates it.
type Program struct {
	Name      string
	Target    Target
	Fields    []FieldDef
	Registers []RegisterDef
	Actions   []*Action
	Tables    []*TableDef
	Control   []Stmt

	// RecircControl is the program's recirculation pass: when Control leaves
	// the field named by RecircField non-zero, the packet makes exactly one
	// extra trip through these statements (with the flag cleared first, so
	// the pass cannot re-request itself — the bound is structural, not a
	// counter). This models the "recirculate with probability 2^-k" path of
	// probabilistic-recirculation heavy hitters: the main pass samples, the
	// extra pass promotes. Set with SetRecirc; the stage allocator charges
	// the pass against the stages left after the main placement, which is how
	// the pisa-3pass budget gates recirculating programs.
	RecircControl []Stmt
	// RecircField is the metadata flag requesting the extra pass.
	RecircField FieldID
	hasRecirc   bool

	// deparserReads are the fields the deparser reads after the pipeline;
	// see SetDeparserReads.
	deparserReads []FieldID
	// plan is the specialisation plan switches share (trace.go), computed
	// by the first newSwitch; guarded by planMu.
	plan *plan

	fieldByName map[string]FieldID
	// actionByName and tableByName index the declared actions and tables by
	// name; on a duplicate name the first declaration stays indexed (Validate
	// rejects the program).
	actionByName map[string]*Action
	tableByName  map[string]*TableDef
	// validations counts Validate calls, so tests can pin how often a
	// construction path validates.
	validations atomic.Uint64
	// mergeExempt records declared exceptions to the mergelaw write
	// discipline, keyed by "action\x00register" — see ExemptMergeWrite.
	mergeExempt map[string]string
}

// Target is a validation profile describing what the hardware supports.
type Target struct {
	Name string
	// AllowMul permits multiplication of two runtime values. The P4
	// behavioral model supports it; switching ASICs generally do not,
	// forcing the shift-based approximations of Section 2.
	AllowMul bool
}

// Built-in targets.
var (
	// TargetBMv2 models the P4 behavioral model the paper validates on.
	TargetBMv2 = Target{Name: "bmv2", AllowMul: true}
	// TargetStrict models a hardware pipeline without runtime multiply.
	TargetStrict = Target{Name: "strict", AllowMul: false}
)

// NewProgram returns an empty program validated against TargetBMv2; set
// Target before Validate to lint for stricter hardware.
func NewProgram(name string) *Program {
	return &Program{
		Name:         name,
		Target:       TargetBMv2,
		fieldByName:  make(map[string]FieldID),
		actionByName: make(map[string]*Action),
		tableByName:  make(map[string]*TableDef),
	}
}

// AddField declares a metadata field and returns its ID. Redeclaring a name
// panics: programs are built by trusted code at startup.
func (p *Program) AddField(name string, w Width) FieldID {
	if w == 0 || w > 64 {
		panic(fmt.Sprintf("p4: field %q width %d out of range", name, w))
	}
	if _, dup := p.fieldByName[name]; dup {
		panic(fmt.Sprintf("p4: duplicate field %q", name))
	}
	id := FieldID(len(p.Fields))
	p.Fields = append(p.Fields, FieldDef{Name: name, Width: w})
	p.fieldByName[name] = id
	return id
}

// FieldByName returns the ID of a declared field.
func (p *Program) FieldByName(name string) (FieldID, bool) {
	id, ok := p.fieldByName[name]
	return id, ok
}

// AddRegister declares a register array.
func (p *Program) AddRegister(name string, cells int, w Width) {
	if cells <= 0 {
		panic(fmt.Sprintf("p4: register %q with %d cells", name, cells))
	}
	if w == 0 || w > 64 {
		panic(fmt.Sprintf("p4: register %q width %d out of range", name, w))
	}
	p.Registers = append(p.Registers, RegisterDef{Name: name, Cells: cells, Width: w})
}

// SetRegisterMerge tags a declared register with its cross-replica merge
// behaviour. Like the Add helpers it is called by trusted program builders
// at startup, so an unknown name panics.
func (p *Program) SetRegisterMerge(name string, k MergeKind) {
	for i := range p.Registers {
		if p.Registers[i].Name == name {
			p.Registers[i].Merge = k
			p.Registers[i].MergeExplicit = true
			return
		}
	}
	panic(fmt.Sprintf("p4: SetRegisterMerge of undeclared register %q", name))
}

// SetMergeWhy documents why a MergeDerived register is outside the snapshot
// canonicalizer's recompute set (see RegisterDef.MergeWhy). Unknown names
// panic, like the other trusted-builder setters.
func (p *Program) SetMergeWhy(name, why string) {
	for i := range p.Registers {
		if p.Registers[i].Name == name {
			p.Registers[i].MergeWhy = why
			return
		}
	}
	panic(fmt.Sprintf("p4: SetMergeWhy of undeclared register %q", name))
}

// ExemptMergeWrite declares that the named action intentionally writes the
// named MergeSum register non-additively, with a documented reason — the
// program-level counterpart of a //stat4:exempt directive. The mergelaw
// analysis accepts the write but reports exemptions that name an unknown
// action or register, or that no violation actually uses.
func (p *Program) ExemptMergeWrite(action, register, reason string) {
	if reason == "" {
		panic(fmt.Sprintf("p4: ExemptMergeWrite(%q, %q) needs a reason", action, register))
	}
	if p.mergeExempt == nil {
		p.mergeExempt = make(map[string]string)
	}
	p.mergeExempt[action+"\x00"+register] = reason
}

// MergeWriteExemption returns the declared reason for a non-additive write
// of register by action, if any.
func (p *Program) MergeWriteExemption(action, register string) (string, bool) {
	r, ok := p.mergeExempt[action+"\x00"+register]
	return r, ok
}

// MergeWriteExemptions returns every declared exemption as (action,
// register, reason) triples in deterministic order.
func (p *Program) MergeWriteExemptions() [][3]string {
	out := make([][3]string, 0, len(p.mergeExempt))
	for k, reason := range p.mergeExempt {
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				out = append(out, [3]string{k[:i], k[i+1:], reason})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// SetRecirc installs the recirculation pass: flag is the metadata field whose
// non-zero value at the end of the main control flow requests the single
// extra pass over stmts. Like the Add helpers it is called by trusted program
// builders at startup.
func (p *Program) SetRecirc(flag FieldID, stmts []Stmt) {
	if len(stmts) == 0 {
		panic("p4: SetRecirc with an empty pass")
	}
	p.RecircField = flag
	p.RecircControl = stmts
	p.hasRecirc = true
}

// SetDeparserReads declares the fields the program's deparser reads once the
// pipeline has run, as a P4-16 deparser lists what it emits. With the
// standard fields, the recirculation flag and what the recirculation pass
// reads, they are what the switch keeps defined at the end of the pipeline
// (see Ctx): a store to any other field that nothing reads later may be
// dropped. Like the Add helpers it is called by trusted program builders at
// startup; a call after the first newSwitch, whose liveness did not see it,
// panics.
func (p *Program) SetDeparserReads(fields ...FieldID) {
	planMu.Lock()
	defer planMu.Unlock()
	if p.plan != nil {
		panic(fmt.Sprintf("p4: SetDeparserReads on program %q after NewSwitch", p.Name))
	}
	p.deparserReads = append([]FieldID(nil), fields...)
}

// AddAction declares an action.
func (p *Program) AddAction(a *Action) {
	p.Actions = append(p.Actions, a)
	if _, dup := p.actionByName[a.Name]; !dup {
		p.actionByName[a.Name] = a
	}
}

// AddTable declares a match-action table.
func (p *Program) AddTable(t *TableDef) {
	p.Tables = append(p.Tables, t)
	if _, dup := p.tableByName[t.Name]; !dup {
		p.tableByName[t.Name] = t
	}
}

// action looks an action up by name in the program's name index, which is
// fixed once the program is built; a real target resolves the name at
// compile time.
//
//stat4:datapath
func (p *Program) action(name string) (*Action, bool) {
	a, ok := p.actionByName[name]
	return a, ok
}

// table looks a table definition up by name.
func (p *Program) table(name string) (*TableDef, bool) {
	t, ok := p.tableByName[name]
	return t, ok
}

// register looks a register definition up by name.
func (p *Program) register(name string) (RegisterDef, bool) {
	for _, r := range p.Registers {
		if r.Name == name {
			return r, true
		}
	}
	return RegisterDef{}, false
}

// ErrInvalidProgram wraps all validation failures reported by Validate.
var ErrInvalidProgram = errors.New("p4: invalid program")

// Validate checks the program is well formed and P4-legal: every reference
// resolves, opcode operands have the right kinds, shift amounts are not
// packet-dependent, and table default actions exist. NewShardedSwitch calls
// it once for all its shards; it is exported so tools can lint programs
// without instantiating state.
func (p *Program) Validate() error {
	p.validations.Add(1)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidProgram, fmt.Sprintf(format, args...))
	}
	seenReg := map[string]bool{}
	for _, r := range p.Registers {
		if seenReg[r.Name] {
			return fail("duplicate register %q", r.Name)
		}
		seenReg[r.Name] = true
	}
	// The name indexes hold one entry per distinct name, so only a program
	// with a duplicate needs the seen sets that name it in declaration order.
	seenAct := map[string]bool{}
	dupAct := len(p.actionByName) < len(p.Actions)
	for _, a := range p.Actions {
		if dupAct {
			if seenAct[a.Name] {
				return fail("duplicate action %q", a.Name)
			}
			seenAct[a.Name] = true
		}
		for i, op := range a.Ops {
			if err := p.validateOp(a, i, op); err != nil {
				return err
			}
		}
	}
	seenTbl := map[string]bool{}
	dupTbl := len(p.tableByName) < len(p.Tables)
	for _, t := range p.Tables {
		if dupTbl {
			if seenTbl[t.Name] {
				return fail("duplicate table %q", t.Name)
			}
			seenTbl[t.Name] = true
		}
		for _, k := range t.Keys {
			if int(k.Field) >= len(p.Fields) || k.Field < 0 {
				return fail("table %q keys on undeclared field %d", t.Name, k.Field)
			}
		}
		if len(t.Keys) > 1 {
			for _, k := range t.Keys {
				if k.Kind == MatchLPM {
					return fail("table %q: LPM keys must be the sole key", t.Name)
				}
			}
		}
		for _, an := range t.ActionNames {
			if _, ok := p.action(an); !ok {
				return fail("table %q references undeclared action %q", t.Name, an)
			}
		}
		if t.DefaultAction != "" {
			if _, ok := p.action(t.DefaultAction); !ok {
				return fail("table %q default action %q undeclared", t.Name, t.DefaultAction)
			}
		}
		if t.MaxEntries <= 0 {
			return fail("table %q has non-positive capacity", t.Name)
		}
	}
	for _, f := range p.deparserReads {
		if int(f) >= len(p.Fields) || f < 0 {
			return fail("deparser reads undeclared field %d", f)
		}
	}
	if err := p.validateStmts(p.Control, 0); err != nil {
		return err
	}
	if len(p.RecircControl) > 0 {
		if !p.hasRecirc {
			return fail("RecircControl set without SetRecirc; the flag field is undeclared")
		}
		if int(p.RecircField) >= len(p.Fields) || p.RecircField < 0 {
			return fail("recirculation flag references undeclared field %d", p.RecircField)
		}
		return p.validateStmts(p.RecircControl, 0)
	}
	return nil
}

func (p *Program) validateStmts(stmts []Stmt, depth int) error {
	const maxIfDepth = 64 // generous; hardware pipelines are far shallower
	if depth > maxIfDepth {
		return fmt.Errorf("%w: if-nesting exceeds %d", ErrInvalidProgram, maxIfDepth)
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			if _, ok := p.table(st.Table); !ok {
				return fmt.Errorf("%w: apply of undeclared table %q", ErrInvalidProgram, st.Table)
			}
		case CallStmt:
			a, ok := p.action(st.Action)
			if !ok {
				return fmt.Errorf("%w: call of undeclared action %q", ErrInvalidProgram, st.Action)
			}
			if len(st.Args) != a.NumParams {
				return fmt.Errorf("%w: call of %q with %d args, want %d",
					ErrInvalidProgram, st.Action, len(st.Args), a.NumParams)
			}
		case IfStmt:
			if err := p.validateRef(st.Cond.A, -1); err != nil {
				return err
			}
			if err := p.validateRef(st.Cond.B, -1); err != nil {
				return err
			}
			if err := p.validateStmts(st.Then, depth+1); err != nil {
				return err
			}
			if err := p.validateStmts(st.Else, depth+1); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown statement %T", ErrInvalidProgram, s)
		}
	}
	return nil
}

func (p *Program) validateRef(r Ref, numParams int) error {
	switch r.Kind {
	case RefConst:
		return nil
	case RefField:
		if int(r.Field) >= len(p.Fields) || r.Field < 0 {
			return fmt.Errorf("%w: reference to undeclared field %d", ErrInvalidProgram, r.Field)
		}
		return nil
	case RefParam:
		if numParams < 0 {
			return fmt.Errorf("%w: parameter reference outside an action", ErrInvalidProgram)
		}
		if r.Param < 0 || r.Param >= numParams {
			return fmt.Errorf("%w: parameter %d of %d", ErrInvalidProgram, r.Param, numParams)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown ref kind %d", ErrInvalidProgram, r.Kind)
	}
}

func (p *Program) validateOp(a *Action, i int, op Op) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: action %q op %d: %s", ErrInvalidProgram, a.Name, i, fmt.Sprintf(format, args...))
	}
	needDstField := func() error {
		if op.Dst.Kind != RefField {
			return fail("destination must be a field")
		}
		return p.validateRef(op.Dst, a.NumParams)
	}
	switch op.Code {
	case OpMov, OpNot:
		if err := needDstField(); err != nil {
			return err
		}
		return p.validateRef(op.A, a.NumParams)
	case OpAdd, OpSub, OpSatAdd, OpSatSub, OpAnd, OpOr, OpXor:
		if err := needDstField(); err != nil {
			return err
		}
		if err := p.validateRef(op.A, a.NumParams); err != nil {
			return err
		}
		return p.validateRef(op.B, a.NumParams)
	case OpMul:
		if !p.Target.AllowMul {
			return fail("target %q does not support runtime multiplication", p.Target.Name)
		}
		if err := needDstField(); err != nil {
			return err
		}
		if err := p.validateRef(op.A, a.NumParams); err != nil {
			return err
		}
		return p.validateRef(op.B, a.NumParams)
	case OpShl, OpShr:
		if err := needDstField(); err != nil {
			return err
		}
		if err := p.validateRef(op.A, a.NumParams); err != nil {
			return err
		}
		if op.B.Kind == RefField {
			// The defining hardware restriction: no packet-dependent
			// shift amounts.
			return fail("shift amount must be a constant or action parameter")
		}
		return p.validateRef(op.B, a.NumParams)
	case OpRegRead:
		if err := needDstField(); err != nil {
			return err
		}
		if _, ok := p.register(op.Reg); !ok {
			return fail("undeclared register %q", op.Reg)
		}
		return p.validateRef(op.A, a.NumParams) // index
	case OpRegWrite:
		if _, ok := p.register(op.Reg); !ok {
			return fail("undeclared register %q", op.Reg)
		}
		if err := p.validateRef(op.A, a.NumParams); err != nil { // index
			return err
		}
		return p.validateRef(op.B, a.NumParams) // value
	case OpHash:
		if err := needDstField(); err != nil {
			return err
		}
		if op.HashID < 0 || op.HashID >= NumHashFunctions {
			return fail("hash function %d of %d", op.HashID, NumHashFunctions)
		}
		if op.B.Kind != RefConst {
			return fail("hash mask must be a constant")
		}
		return p.validateRef(op.A, a.NumParams)
	case OpDigest:
		for _, f := range op.Fields {
			if err := p.validateRef(Ref{Kind: RefField, Field: f}, a.NumParams); err != nil {
				return err
			}
		}
		return nil
	case OpSetEgress:
		return p.validateRef(op.A, a.NumParams)
	case OpDrop:
		return nil
	default:
		return fail("unknown opcode %d", op.Code)
	}
}
