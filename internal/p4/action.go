package p4

import "fmt"

// RefKind discriminates operand references.
type RefKind uint8

// Operand reference kinds.
const (
	RefConst RefKind = iota // immediate constant
	RefField                // metadata field
	RefParam                // action parameter, bound by the table entry
)

// Ref is an operand of an action op or branch condition.
type Ref struct {
	Kind  RefKind
	Const uint64
	Field FieldID
	Param int
}

// C returns a constant reference.
func C(v uint64) Ref { return Ref{Kind: RefConst, Const: v} }

// F returns a field reference.
func F(id FieldID) Ref { return Ref{Kind: RefField, Field: id} }

// P returns an action-parameter reference.
func P(i int) Ref { return Ref{Kind: RefParam, Param: i} }

// OpCode enumerates the P4-legal primitive operations. There is deliberately
// no division, modulo, multiplication of two runtime values, or loop — the
// absences that drive the paper's Section 2 redesign of the statistics.
type OpCode uint8

// Primitive operations.
const (
	OpMov    OpCode = iota
	OpAdd           // dst = a + b, wrapping at dst's width
	OpSub           // dst = a - b, wrapping at dst's width
	OpMul           // dst = a * b, wrapping; only legal on targets with AllowMul
	OpSatAdd        // dst = a + b, saturating at dst's width
	OpSatSub        // dst = a - b, saturating at zero
	OpAnd
	OpOr
	OpXor
	OpNot // dst = ^a, masked to dst's width
	OpShl // dst = a << b; b must not be packet-dependent
	OpShr // dst = a >> b; b must not be packet-dependent
	OpRegRead
	OpRegWrite
	OpDigest // push an alert record to the control plane
	OpSetEgress
	OpDrop
	// OpHash models the target's hash engine (CRC units on hardware, a
	// multiply-shift family here): dst = hash_<HashID>(a) & mask. Legal on
	// every target, including multiplication-free ones.
	OpHash
)

var opNames = map[OpCode]string{
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSatAdd: "sadd", OpSatSub: "ssub",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpShl: "shl", OpShr: "shr",
	OpRegRead: "regread", OpRegWrite: "regwrite", OpDigest: "digest",
	OpSetEgress: "setegress", OpDrop: "drop", OpHash: "hash",
}

// String returns the opcode mnemonic.
func (c OpCode) String() string {
	if n, ok := opNames[c]; ok {
		return n
	}
	return fmt.Sprintf("OpCode(%d)", uint8(c))
}

// Op is one primitive operation. Field use by opcode:
//
//	arithmetic/logic: Dst ← A ⊕ B
//	OpMov/OpNot:      Dst ← A
//	OpRegRead:        Dst ← Reg[A]
//	OpRegWrite:       Reg[A] ← B
//	OpDigest:         emit DigestID with the listed Fields
//	OpSetEgress:      egress port ← A
//	OpHash:           Dst ← hash_<HashID>(A) & B (B a constant mask)
type Op struct {
	Code     OpCode
	Dst      Ref
	A, B     Ref
	Reg      string
	DigestID int
	HashID   int
	Fields   []FieldID
}

// Op constructors, for readable program builders.

// Mov builds dst ← a.
func Mov(dst FieldID, a Ref) Op { return Op{Code: OpMov, Dst: F(dst), A: a} }

// Add builds dst ← a + b (wrapping).
func Add(dst FieldID, a, b Ref) Op { return Op{Code: OpAdd, Dst: F(dst), A: a, B: b} }

// Sub builds dst ← a − b (wrapping).
func Sub(dst FieldID, a, b Ref) Op { return Op{Code: OpSub, Dst: F(dst), A: a, B: b} }

// Mul builds dst ← a · b (wrapping). Multiplication of two runtime values is
// only available on targets with AllowMul (the behavioral model); stricter
// hardware profiles reject it, which is why Stat4 prefers the shift-based
// approximations of internal/intstat.
func Mul(dst FieldID, a, b Ref) Op { return Op{Code: OpMul, Dst: F(dst), A: a, B: b} }

// SatSub builds dst ← a − b saturating at zero.
func SatSub(dst FieldID, a, b Ref) Op { return Op{Code: OpSatSub, Dst: F(dst), A: a, B: b} }

// And builds dst ← a & b.
func And(dst FieldID, a, b Ref) Op { return Op{Code: OpAnd, Dst: F(dst), A: a, B: b} }

// Or builds dst ← a | b.
func Or(dst FieldID, a, b Ref) Op { return Op{Code: OpOr, Dst: F(dst), A: a, B: b} }

// Xor builds dst ← a ^ b.
func Xor(dst FieldID, a, b Ref) Op { return Op{Code: OpXor, Dst: F(dst), A: a, B: b} }

// Shl builds dst ← a << amount.
func Shl(dst FieldID, a, amount Ref) Op { return Op{Code: OpShl, Dst: F(dst), A: a, B: amount} }

// Shr builds dst ← a >> amount.
func Shr(dst FieldID, a, amount Ref) Op { return Op{Code: OpShr, Dst: F(dst), A: a, B: amount} }

// RegRead builds dst ← reg[idx].
func RegRead(dst FieldID, reg string, idx Ref) Op {
	return Op{Code: OpRegRead, Dst: F(dst), Reg: reg, A: idx}
}

// RegWrite builds reg[idx] ← val.
func RegWrite(reg string, idx, val Ref) Op {
	return Op{Code: OpRegWrite, Reg: reg, A: idx, B: val}
}

// EmitDigest builds a digest push carrying the listed fields.
func EmitDigest(id int, fields ...FieldID) Op {
	return Op{Code: OpDigest, DigestID: id, Fields: fields}
}

// SetEgress builds an egress-port assignment.
func SetEgress(port Ref) Op { return Op{Code: OpSetEgress, A: port} }

// Hash builds dst ← hash_<id>(a) & mask, using the target's id-th hash
// function.
func Hash(dst FieldID, id int, a Ref, mask uint64) Op {
	return Op{Code: OpHash, Dst: F(dst), A: a, B: C(mask), HashID: id}
}

// Drop builds a drop mark.
func Drop() Op { return Op{Code: OpDrop} }

// Action is a named straight-line op sequence with a fixed number of
// parameters bound by the matching table entry (or a direct call).
type Action struct {
	Name      string
	NumParams int
	Ops       []Op
}

// NewAction builds an action.
func NewAction(name string, numParams int, ops ...Op) *Action {
	return &Action{Name: name, NumParams: numParams, Ops: ops}
}

// CmpOp enumerates branch comparisons.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Cond is a branch condition comparing two operands.
type Cond struct {
	A  Ref
	Op CmpOp
	B  Ref
}

// Stmt is a control-flow statement: ApplyStmt, CallStmt or IfStmt.
type Stmt interface{ stmt() }

// ApplyStmt applies a match-action table.
type ApplyStmt struct{ Table string }

// CallStmt invokes an action directly with constant arguments.
type CallStmt struct {
	Action string
	Args   []uint64
}

// IfStmt branches on a condition. Nesting ifs is the only control flow; the
// representation cannot express a loop.
type IfStmt struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

func (ApplyStmt) stmt() {}
func (CallStmt) stmt()  {}
func (IfStmt) stmt()    {}

// If builds an IfStmt.
func If(cond Cond, then ...Stmt) IfStmt { return IfStmt{Cond: cond, Then: then} }

// WithElse returns a copy of the if with an else branch.
func (s IfStmt) WithElse(els ...Stmt) IfStmt {
	s.Else = els
	return s
}

// Apply builds an ApplyStmt.
func Apply(table string) ApplyStmt { return ApplyStmt{Table: table} }

// Call builds a CallStmt.
func Call(action string, args ...uint64) CallStmt { return CallStmt{Action: action, Args: args} }
