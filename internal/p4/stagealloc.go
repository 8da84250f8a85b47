package p4

// This file is the stage-budget analysis: a greedy allocator that places a
// validated program's control flow (the Stmt tree the switch compiles)
// onto the stages of a PISA target model and reports whether the program
// fits. It is the whole-program
// counterpart of AnalyzeProgram's dependency figures — instead of reporting
// the longest def-use chain, it actually performs the allocation the chain
// bounds, against per-stage resource budgets, and says *which* stage every
// table, action op and register access lands in.
//
// The model follows the feed-forward discipline of a reconfigurable match
// table pipeline:
//
//   - a value produced by an ALU op in stage s is consumable from stage s+1;
//   - a table is matched no earlier than its key fields are available, and
//     its actions execute in the match stage or later;
//   - branch conditions are gateway predication: a condition on available
//     values gates its region at no pipeline depth of its own (the emitted
//     nested-if trees correspond to range lookups, not sequential stages);
//   - a register array is a stateful resource: accesses are ordered (an
//     access must land in a strictly later stage than the previous one, so
//     reads observe earlier writes) and each stage gives each register at
//     most one access;
//   - a read-modify-write folds into one stateful-ALU op: a write whose
//     value derives from the same cell's read in the same packet (or is an
//     external value already available at the read's stage) is the
//     write-back half of that read's access — it costs no stage and no
//     extra access, exactly as a stateful ALU reads, modifies and writes a
//     cell in one stage. The modify chain's PHV ops are still charged as
//     ALU work, and a write-back predicated on a later-resolved condition
//     is modeled as the stateful ALU's internal predication;
//   - mutually exclusive code — the two arms of a branch, the candidate
//     actions of one table — shares stage resources (per-stage cost is the
//     max across alternatives, and one register access can serve all arms),
//     because only one alternative executes per packet.
//
// Per-stage budgets (ALU slots, hash units, stateful register accesses,
// tables, SRAM) come from a TargetModel; AllocateStages reports violations
// instead of failing, so an over-budget program still yields a complete
// placement showing how deep a pipeline it would need.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// TargetModel is a PISA pipeline resource profile the stage allocator
// places programs against. The JSON tags are the schema of the target-model
// config (configs/lint-target.json) consumed by cmd/stat4-lint.
type TargetModel struct {
	Name string `json:"name"`
	// Stages is the total placeable pipeline depth. A physical pipeline's
	// depth multiplies by how many passes the deployment spends on the
	// program: ingress + egress is two, each recirculation adds one more.
	Stages int `json:"stages"`
	// ALUsPerStage bounds the action ops one packet executes in one stage
	// (the VLIW lane count). Mutually exclusive actions share lanes.
	ALUsPerStage int `json:"alus_per_stage"`
	// HashUnitsPerStage bounds OpHash evaluations per stage.
	HashUnitsPerStage int `json:"hash_units_per_stage"`
	// RegActionsPerStage bounds distinct register arrays accessed in one
	// stage (the stateful-ALU count). Each register additionally allows at
	// most one access per stage regardless of this budget.
	RegActionsPerStage int `json:"reg_actions_per_stage"`
	// TablesPerStage bounds match-action tables applied in one stage.
	TablesPerStage int `json:"tables_per_stage"`
	// SRAMPerStageBytes bounds the declared state homed in one stage: a
	// table's capacity bytes in its match stage, a register array's bytes
	// in the stage of its first access.
	SRAMPerStageBytes int `json:"sram_per_stage_bytes"`
}

// DefaultTargetModel is the model the feasibility gate runs under: a
// Tofino-like per-stage profile (12-stage pipeline, VLIW action lanes, hash
// and stateful-ALU units, per-stage SRAM) deployed over three passes —
// ingress, egress, and one recirculation — giving 36 placeable stages.
//
// The pass count is itself a finding of this analysis: the window-override
// program (the paper's 12-step-chain claim) fits the two-pass layout, but
// the full variance/σ chain — the serial sqrt leaf plus the threshold
// check downstream of it — needs a third pass on a 12-stage target.
func DefaultTargetModel() TargetModel {
	return TargetModel{
		Name:               "pisa-3pass",
		Stages:             36,
		ALUsPerStage:       32,
		HashUnitsPerStage:  6,
		RegActionsPerStage: 4,
		TablesPerStage:     8,
		SRAMPerStageBytes:  1 << 20,
	}
}

// LoadTargetModel reads and validates a target-model JSON file (the schema
// is TargetModel's JSON tags; configs/lint-target.json mirrors the default).
// Unknown fields are errors, so a typoed budget cannot silently fall back to
// zero and fail validation with a confusing name.
func LoadTargetModel(path string) (TargetModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TargetModel{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tm TargetModel
	if err := dec.Decode(&tm); err != nil {
		return TargetModel{}, fmt.Errorf("p4: parsing target model %s: %v", path, err)
	}
	if err := tm.Validate(); err != nil {
		return TargetModel{}, fmt.Errorf("p4: %s: %v", path, err)
	}
	return tm, nil
}

// Validate sanity-checks a (possibly hand-edited) target model.
func (tm TargetModel) Validate() error {
	type bound struct {
		name string
		v    int
	}
	for _, b := range []bound{
		{"stages", tm.Stages},
		{"alus_per_stage", tm.ALUsPerStage},
		{"hash_units_per_stage", tm.HashUnitsPerStage},
		{"reg_actions_per_stage", tm.RegActionsPerStage},
		{"tables_per_stage", tm.TablesPerStage},
		{"sram_per_stage_bytes", tm.SRAMPerStageBytes},
	} {
		if b.v <= 0 {
			return fmt.Errorf("p4: target model %q: %s must be positive, have %d", tm.Name, b.name, b.v)
		}
	}
	return nil
}

// StageUse is the allocation of one pipeline stage.
type StageUse struct {
	ALUs       int      // action ops charged to this stage (max across alternatives)
	HashUnits  int      // hash evaluations
	RegActions int      // distinct register arrays accessed
	SRAMBytes  int      // state homed here (tables + first-touch registers)
	Tables     []string // tables matched in this stage
	Registers  []string // register arrays accessed in this stage
	Homed      []string // register arrays whose SRAM is charged here
}

// StageReport is the stage-placement analysis of one program: the static
// resource report extended with the per-stage allocation against a target
// model.
type StageReport struct {
	ResourceReport
	Model      TargetModel
	Stages     []StageUse // one entry per stage the placement touched
	StagesUsed int        // == len(Stages); > Model.Stages when the program does not fit
	Fit        bool
	// RecircFloor is the stage index where the recirculation pass started
	// placing (the main pass's depth), 0 for programs without one. The
	// recirc pass's own depth is StagesUsed − RecircFloor.
	RecircFloor int
	// Violations lists, deduplicated and in placement order, every reason
	// the program exceeds the model.
	Violations []string
}

// AllocateStages validates the program and places its control flow onto the
// target model's stages. The error is only for invalid programs or models;
// an over-budget program returns Fit=false with the violations listed in the
// report.
func AllocateStages(prog *Program, tm TargetModel) (*StageReport, error) {
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	a := &stageAlloc{
		prog: prog,
		tm:   tm,
		st: &allocState{
			avail:   make([]int, len(prog.Fields)),
			regNext: make(map[string]int),
			tag:     make([]fieldTag, len(prog.Fields)),
			reads:   make(map[string]readSite),
		},
		led:  &stageLedger{},
		seen: make(map[string]bool),
	}
	a.walkStmts(prog.Control, 0)

	recircFloor := 0
	if len(prog.RecircControl) > 0 {
		// The recirculation pass re-enters the pipeline after the main pass
		// has run to completion, so nothing in it may place before the stages
		// the main placement consumed: its control floor is the main pass's
		// depth. Metadata (PHV) values and register-access ordering carry
		// across the trip, so the dataflow state threads through unchanged.
		recircFloor = len(a.led.stages)
		a.walkStmts(prog.RecircControl, recircFloor)
	}

	rep := &StageReport{
		ResourceReport: AnalyzeProgram(prog),
		Model:          tm,
		RecircFloor:    recircFloor,
		Violations:     a.violations,
	}
	for i := range a.led.stages {
		rep.Stages = append(rep.Stages, a.led.stages[i].use())
	}
	rep.StagesUsed = len(rep.Stages)
	rep.Fit = len(a.violations) == 0 && rep.StagesUsed <= tm.Stages
	return rep, nil
}

// fieldTag marks a field as holding a value derived from one register
// cell's read through stateful-ALU-expressible ops — the candidate for a
// write-back fusion.
type fieldTag struct {
	ok  bool
	reg string
	idx Ref
}

// readSite records this packet's pending read of a register: the stage its
// stateful op was placed in, and whether a write-back can still fuse into
// it (one write per access).
type readSite struct {
	stage int
	idx   Ref
	open  bool
}

// allocState is the dataflow state threaded through the placement walk.
type allocState struct {
	// avail[f] is the first stage in which field f's current value can be
	// consumed (producer stage + 1; parsed headers and constants are 0).
	avail []int
	// regNext[r] is the first stage the next access to register r may use:
	// one past the previous access, so reads observe earlier writes.
	regNext map[string]int
	// tag[f] tracks which register read field f's value derives from.
	tag []fieldTag
	// reads[r] is register r's pending read on this path.
	reads map[string]readSite
}

func (s *allocState) clone() *allocState {
	c := &allocState{
		avail:   append([]int(nil), s.avail...),
		regNext: make(map[string]int, len(s.regNext)),
		tag:     append([]fieldTag(nil), s.tag...),
		reads:   make(map[string]readSite, len(s.reads)),
	}
	for k, v := range s.regNext {
		c.regNext[k] = v
	}
	for k, v := range s.reads {
		c.reads[k] = v
	}
	return c
}

// merge folds an alternative's state in pointwise: a consumer after the
// join must wait for the value on whichever path produces it last. Tags and
// pending reads survive only when both paths agree on them.
func (s *allocState) merge(o *allocState) {
	for i := range s.avail {
		if o.avail[i] > s.avail[i] {
			s.avail[i] = o.avail[i]
		}
	}
	for k, v := range o.regNext {
		if v > s.regNext[k] {
			s.regNext[k] = v
		}
	}
	for i := range s.tag {
		if s.tag[i] != o.tag[i] {
			s.tag[i] = fieldTag{}
		}
	}
	for k, sv := range s.reads {
		ov, ok := o.reads[k]
		if !ok || ov.idx != sv.idx {
			delete(s.reads, k)
			continue
		}
		if ov.stage > sv.stage {
			sv.stage = ov.stage
		}
		sv.open = sv.open && ov.open
		s.reads[k] = sv
	}
}

// stageSlot is the mutable allocation of one stage.
type stageSlot struct {
	alu, hash int
	sram      int
	tables    []string
	regs      map[string]bool
	homes     map[string]bool
}

func (s *stageSlot) use() StageUse {
	u := StageUse{
		ALUs:       s.alu,
		HashUnits:  s.hash,
		RegActions: len(s.regs),
		SRAMBytes:  s.sram,
		Tables:     append([]string(nil), s.tables...),
		Registers:  sortedKeys(s.regs),
		Homed:      sortedKeys(s.homes),
	}
	return u
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stageLedger is the growing per-stage resource book.
type stageLedger struct {
	stages []stageSlot
}

func (l *stageLedger) slot(s int) *stageSlot {
	for len(l.stages) <= s {
		l.stages = append(l.stages, stageSlot{
			regs:  make(map[string]bool),
			homes: make(map[string]bool),
		})
	}
	return &l.stages[s]
}

func (l *stageLedger) clone() *stageLedger {
	c := &stageLedger{stages: make([]stageSlot, len(l.stages))}
	for i := range l.stages {
		src := &l.stages[i]
		dst := &c.stages[i]
		dst.alu, dst.hash, dst.sram = src.alu, src.hash, src.sram
		dst.tables = append([]string(nil), src.tables...)
		dst.regs = make(map[string]bool, len(src.regs))
		for k := range src.regs {
			dst.regs[k] = true
		}
		dst.homes = make(map[string]bool, len(src.homes))
		for k := range src.homes {
			dst.homes[k] = true
		}
	}
	return c
}

// merge folds an alternative ledger in: per-stage costs take the max (only
// one alternative runs per packet), register access and home sets union (an
// access shared by exclusive arms is still one access).
func (l *stageLedger) merge(o *stageLedger) {
	for i := range o.stages {
		src := &o.stages[i]
		dst := l.slot(i)
		if src.alu > dst.alu {
			dst.alu = src.alu
		}
		if src.hash > dst.hash {
			dst.hash = src.hash
		}
		if src.sram > dst.sram {
			dst.sram = src.sram
		}
		if len(src.tables) > len(dst.tables) {
			dst.tables = append([]string(nil), src.tables...)
		}
		for k := range src.regs {
			dst.regs[k] = true
		}
		for k := range src.homes {
			dst.homes[k] = true
		}
	}
}

// need is one placement request against the per-stage budgets.
type need struct {
	alu   int
	hash  int
	table string
	sram  int    // charged if placed (table bytes, or register home)
	reg   string // register access, at most one per register per stage
}

// stageAlloc drives the placement walk.
type stageAlloc struct {
	prog       *Program
	tm         TargetModel
	st         *allocState
	led        *stageLedger
	violations []string
	seen       map[string]bool
}

func (a *stageAlloc) violatef(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	if !a.seen[v] {
		a.seen[v] = true
		a.violations = append(a.violations, v)
	}
}

// place finds the first stage ≥ earliest with room for the request, greedily
// bumping past full stages, and consumes the resources there. Stages past
// the model's depth are still allocated — with a violation recorded — so the
// report shows the pipeline depth the program actually needs. State larger
// than a whole stage's SRAM fits no stage, so bumping would never end: it is
// charged to its earliest stage, with a violation.
func (a *stageAlloc) place(earliest int, n need, what string) int {
	s := earliest
	if n.sram > a.tm.SRAMPerStageBytes {
		if n.reg != "" {
			what = fmt.Sprintf("register %q", n.reg)
		}
		a.violatef("%s needs %d B of SRAM, over the %d B per-stage budget", what, n.sram, a.tm.SRAMPerStageBytes)
	} else {
		for !a.fits(s, n) {
			s++
		}
	}
	if s >= a.tm.Stages {
		a.violatef("%s needs stage %d of a %d-stage target", what, s+1, a.tm.Stages)
	}
	a.consume(s, n)
	return s
}

func (a *stageAlloc) fits(s int, n need) bool {
	slot := a.led.slot(s)
	if slot.alu+n.alu > a.tm.ALUsPerStage {
		return false
	}
	if slot.hash+n.hash > a.tm.HashUnitsPerStage {
		return false
	}
	if n.table != "" && len(slot.tables)+1 > a.tm.TablesPerStage {
		return false
	}
	if n.reg != "" {
		if slot.regs[n.reg] {
			return false // one access per register per stage
		}
		if len(slot.regs)+1 > a.tm.RegActionsPerStage {
			return false
		}
	}
	if n.sram > 0 && slot.sram+n.sram > a.tm.SRAMPerStageBytes {
		return false
	}
	return true
}

func (a *stageAlloc) consume(s int, n need) {
	slot := a.led.slot(s)
	slot.alu += n.alu
	slot.hash += n.hash
	if n.table != "" {
		slot.tables = append(slot.tables, n.table)
	}
	if n.reg != "" {
		slot.regs[n.reg] = true
		if n.sram > 0 {
			slot.homes[n.reg] = true
		}
	}
	slot.sram += n.sram
}

// regHomed reports whether the register's SRAM has been charged to a stage.
func (a *stageAlloc) regHomed(name string) bool {
	for i := range a.led.stages {
		if a.led.stages[i].homes[name] {
			return true
		}
	}
	return false
}

// refAvail is the stage from which a ref's value is consumable.
func (a *stageAlloc) refAvail(r Ref) int {
	if r.Kind == RefField {
		return a.st.avail[r.Field]
	}
	return 0 // constants and control-plane-installed parameters
}

// walkStmts places a statement list. ctrl is the gateway floor: no op in the
// list may run before the stage its guarding conditions' operands become
// available.
func (a *stageAlloc) walkStmts(stmts []Stmt, ctrl int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			t, _ := a.prog.table(st.Table)
			a.placeApply(t, ctrl)
		case CallStmt:
			act, _ := a.prog.action(st.Action)
			a.placeAction(act, ctrl)
		case IfStmt:
			cond := max(ctrl, a.refAvail(st.Cond.A), a.refAvail(st.Cond.B))
			a.walkAlternatives(func(arm int) {
				if arm == 0 {
					a.walkStmts(st.Then, cond)
				} else {
					a.walkStmts(st.Else, cond)
				}
			})
		}
	}
}

// walkAlternatives runs the two arms of a branch against cloned state and
// cloned ledgers, then merges: dataflow pointwise max, resources max/union —
// exclusive arms share stage budgets.
func (a *stageAlloc) walkAlternatives(run func(arm int)) {
	baseSt, baseLed := a.st, a.led
	var sts []*allocState
	var leds []*stageLedger
	for arm := 0; arm < 2; arm++ {
		a.st = baseSt.clone()
		a.led = baseLed.clone()
		run(arm)
		sts = append(sts, a.st)
		leds = append(leds, a.led)
	}
	a.st, a.led = sts[0], leds[0]
	a.st.merge(sts[1])
	a.led.merge(leds[1])
}

// placeApply places one table match and the candidate actions its entries
// can bind (all declared actions plus the default), which are mutually
// exclusive per packet and therefore share stage resources.
func (a *stageAlloc) placeApply(t *TableDef, ctrl int) {
	earliest := ctrl
	for _, k := range t.Keys {
		earliest = max(earliest, a.st.avail[k.Field])
	}
	bytes := t.MaxEntries * entryBytes(a.prog, t)
	s := a.place(earliest, need{table: t.Name, sram: bytes}, fmt.Sprintf("table %q", t.Name))

	// Candidate actions: every action an entry may bind, plus the default.
	names := append([]string(nil), t.ActionNames...)
	if t.DefaultAction != "" {
		names = append(names, t.DefaultAction)
	}
	acts := make([]*Action, 0, len(names))
	for _, n := range names {
		if act, ok := a.prog.action(n); ok {
			acts = append(acts, act)
		}
	}
	a.placeExclusive(acts, s)
}

// placeExclusive places a set of mutually exclusive actions, merging their
// state and resource use like branch arms.
func (a *stageAlloc) placeExclusive(acts []*Action, ctrl int) {
	if len(acts) == 0 {
		return
	}
	if len(acts) == 1 {
		a.placeAction(acts[0], ctrl)
		return
	}
	baseSt, baseLed := a.st, a.led
	mergedSt, mergedLed := (*allocState)(nil), (*stageLedger)(nil)
	for _, ca := range acts {
		a.st = baseSt.clone()
		a.led = baseLed.clone()
		a.placeAction(ca, ctrl)
		if mergedSt == nil {
			mergedSt, mergedLed = a.st, a.led
		} else {
			mergedSt.merge(a.st)
			mergedLed.merge(a.led)
		}
	}
	a.st, a.led = mergedSt, mergedLed
}

// fusesWith reports whether a write folds into this packet's pending read
// of the same register as the write-back half of one stateful-ALU op: same
// cell (textually identical index ref), and the written value either
// derives from that read through stateful-ALU-expressible ops or is an
// external PHV value already available at the read's stage.
func (a *stageAlloc) fusesWith(rs readSite, op *Op) bool {
	if !rs.open || rs.idx != op.A {
		return false
	}
	if op.B.Kind == RefField {
		t := a.st.tag[op.B.Field]
		if t.ok && t.reg == op.Reg && t.idx == op.A {
			return true
		}
	}
	return a.refAvail(op.B) <= rs.stage
}

// tagOf computes the register tag an op's destination inherits: the value
// keeps its read's tag through the ops a stateful ALU can apply, as long as
// exactly one tagged source flows in (two distinct reads can't both live in
// one stateful op, and multiplies leave the stateful ALU's vocabulary).
func (a *stageAlloc) tagOf(op *Op) fieldTag {
	switch op.Code {
	case OpMul, OpHash:
		return fieldTag{}
	}
	var t fieldTag
	for _, r := range [2]Ref{op.A, op.B} {
		if r.Kind != RefField {
			continue
		}
		rt := a.st.tag[r.Field]
		if !rt.ok {
			continue
		}
		if t.ok && t != rt {
			return fieldTag{} // two distinct reads feed this value
		}
		t = rt
	}
	return t
}

// placeAction places one action's ops in order. ctrl is the stage of the
// matching table (actions run in the match stage or later) or the gateway
// floor for direct calls.
func (a *stageAlloc) placeAction(act *Action, ctrl int) {
	for i := range act.Ops {
		op := &act.Ops[i]
		earliest := ctrl
		bump := func(v int) {
			if v > earliest {
				earliest = v
			}
		}
		regName := op.Reg
		n := need{alu: 1}
		what := fmt.Sprintf("action %q op %d (%s)", act.Name, i, op.Code)
		switch op.Code {
		case OpHash:
			bump(a.refAvail(op.A))
			n = need{hash: 1}
		case OpRegRead:
			bump(a.refAvail(op.A))
			bump(a.st.regNext[regName])
			n = need{reg: regName}
		case OpRegWrite:
			if rs, ok := a.st.reads[regName]; ok && a.fusesWith(rs, op) {
				// The write-back half of the read's stateful op: no stage,
				// no extra access. The next access still orders after the
				// read's stage, which this write shares.
				rs.open = false
				a.st.reads[regName] = rs
				continue
			}
			bump(a.refAvail(op.A))
			bump(a.refAvail(op.B))
			bump(a.st.regNext[regName])
			n = need{reg: regName}
		case OpDigest:
			for _, f := range op.Fields {
				bump(a.st.avail[f])
			}
		case OpMov, OpNot, OpSetEgress, OpDrop:
			bump(a.refAvail(op.A))
		default: // two-operand ALU ops
			bump(a.refAvail(op.A))
			bump(a.refAvail(op.B))
		}
		if n.reg != "" && !a.regHomed(n.reg) {
			if def, ok := a.prog.register(n.reg); ok {
				n.sram = def.Bytes()
			}
		}
		s := a.place(earliest, n, what)
		switch op.Code {
		case OpRegWrite, OpDigest, OpSetEgress, OpDrop:
			// No tracked destination field.
			if op.Code == OpRegWrite {
				// An unfused write is a fresh access; the pending read is
				// spent either way.
				delete(a.st.reads, regName)
			}
		case OpRegRead:
			a.st.avail[op.Dst.Field] = s + 1
			a.st.reads[regName] = readSite{stage: s, idx: op.A, open: true}
			a.st.tag[op.Dst.Field] = fieldTag{ok: true, reg: regName, idx: op.A}
		default:
			a.st.avail[op.Dst.Field] = s + 1
			a.st.tag[op.Dst.Field] = a.tagOf(op)
		}
		if n.reg != "" {
			a.st.regNext[regName] = s + 1
		}
	}
}
