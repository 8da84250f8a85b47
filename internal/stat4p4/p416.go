package stat4p4

import (
	"fmt"
	"sort"
	"strings"

	"stat4/internal/p4"
)

// EmitP416 translates the emitted IR program into P4-16 source for the v1model
// architecture — the form the paper's artifact ships ("a P4 library that bmv2
// programs can import"). The translation is mechanical:
//
//   - every m.* metadata field becomes a bit<W> member of metadata_t
//     (dots become underscores);
//   - standard fields map onto the v1model parser's headers and intrinsic
//     metadata (ipv4.dst → hdr.ipv4.dstAddr, std.ts_ns → the ingress
//     timestamp, std.egress → standard_metadata.egress_spec, …), with the
//     derived bits (tcp.syn, the biased echo value, wire length) computed in
//     a preamble at the top of the ingress control;
//   - registers, actions, tables and the control flow translate one to one;
//     OpHash becomes a hash() extern call and OpDigest a digest() call.
//
// The output is intended for review and for carrying the design back to a
// real toolchain; this repository's simulator remains the executable
// semantics (the module is offline, so the text is not run through p4c).
func EmitP416(l *Library) string {
	std := l.Std
	g := &p416{lib: l, prog: l.Prog, std: map[p4.FieldID]string{
		std.InPort:    "(bit<16>)standard_metadata.ingress_port",
		std.TsNs:      "meta.ts_ns", // widened from the 48-bit intrinsic in the preamble
		std.WireLen:   "standard_metadata.packet_length",
		std.Egress:    "standard_metadata.egress_spec",
		std.Drop:      "meta.do_drop",
		std.EthType:   "hdr.ethernet.etherType",
		std.IPv4Valid: "meta.ipv4_valid",
		std.IPv4Src:   "hdr.ipv4.srcAddr",
		std.IPv4Dst:   "hdr.ipv4.dstAddr",
		std.IPv4Proto: "hdr.ipv4.protocol",
		std.IPv4Len:   "hdr.ipv4.totalLen",
		std.TCPValid:  "meta.tcp_valid",
		std.TCPSport:  "hdr.tcp.srcPort",
		std.TCPDport:  "hdr.tcp.dstPort",
		std.TCPFlags:  "hdr.tcp.flags",
		std.TCPSyn:    "meta.tcp_syn",
		std.UDPValid:  "meta.udp_valid",
		std.UDPSport:  "hdr.udp.srcPort",
		std.UDPDport:  "hdr.udp.dstPort",
		std.EchoValid: "meta.echo_valid",
		std.EchoValue: "meta.echo_value",
	}}
	return g.emit()
}

type p416 struct {
	lib  *Library
	prog *p4.Program
	std  map[p4.FieldID]string // the standard fields' expressions
	b    strings.Builder
}

func (g *p416) pf(format string, args ...any) { fmt.Fprintf(&g.b, format, args...) }

// fieldExpr maps a FieldID to its P4-16 expression: a standard field's
// header, intrinsic or preamble expression, any other field's metadata_t
// member.
func (g *p416) fieldExpr(id p4.FieldID) string {
	if e, ok := g.std[id]; ok {
		return e
	}
	return "meta." + sanitize(g.prog.Fields[id].Name)
}

// metaFields lists the fields that live in metadata_t (everything that is
// not mapped onto a header or intrinsic), plus the derived preamble fields.
func (g *p416) metaFields() []p4.FieldID {
	var out []p4.FieldID
	for i := range g.prog.Fields {
		if strings.HasPrefix(g.fieldExpr(p4.FieldID(i)), "meta.") {
			out = append(out, p4.FieldID(i))
		}
	}
	return out
}

func sanitize(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

func (g *p416) emit() string {
	g.pf("// Generated from the Stat4 IR program %q — do not edit.\n", g.prog.Name)
	g.pf("// Options: slots=%d size=%d stages=%d echo=%v strict=%v\n\n",
		g.lib.Opts.Slots, g.lib.Opts.Size, g.lib.Opts.Stages,
		g.lib.Opts.Echo, g.lib.Opts.Strict)
	g.pf("#include <core.p4>\n#include <v1model.p4>\n\n")
	g.pf("#define STAT_COUNTER_NUM  %d\n", g.lib.Opts.Slots)
	g.pf("#define STAT_COUNTER_SIZE %d\n\n", g.lib.Opts.Size)

	g.headers()
	g.metadata()
	g.parser()
	g.ingress()
	g.boilerplate()
	return g.b.String()
}

func (g *p416) headers() {
	g.pf(`header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  diffserv;
    bit<16> totalLen;
    bit<16> identification;
    bit<3>  flags;
    bit<13> fragOffset;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> hdrChecksum;
    bit<32> srcAddr;
    bit<32> dstAddr;
}

header tcp_t {
    bit<16> srcPort;
    bit<16> dstPort;
    bit<32> seqNo;
    bit<32> ackNo;
    bit<4>  dataOffset;
    bit<4>  res;
    bit<8>  flags;
    bit<16> window;
    bit<16> checksum;
    bit<16> urgentPtr;
}

header udp_t {
    bit<16> srcPort;
    bit<16> dstPort;
    bit<16> length_;
    bit<16> checksum;
}

header echo_t {
    bit<16> value;
}

struct headers_t {
    ethernet_t ethernet;
    ipv4_t     ipv4;
    tcp_t      tcp;
    udp_t      udp;
    echo_t     echo;
}

`)
}

func (g *p416) metadata() {
	g.pf("struct metadata_t {\n")
	g.pf("    bit<64> ts_ns;\n")
	for _, id := range g.metaFields() {
		if id != g.lib.Std.TsNs { // declared above
			g.pf("    bit<%d> %s;\n", g.prog.Fields[id].Width, strings.TrimPrefix(g.fieldExpr(id), "meta."))
		}
	}
	g.pf("}\n\n")
}

func (g *p416) parser() {
	g.pf(`parser Stat4Parser(packet_in pkt, out headers_t hdr,
                   inout metadata_t meta, inout standard_metadata_t standard_metadata) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            0x0800: parse_ipv4;
            0x88B5: parse_echo;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            6:  parse_tcp;
            17: parse_udp;
            default: accept;
        }
    }
    state parse_tcp { pkt.extract(hdr.tcp); transition accept; }
    state parse_udp { pkt.extract(hdr.udp); transition accept; }
    state parse_echo { pkt.extract(hdr.echo); transition accept; }
}

`)
}

func (g *p416) registers() {
	for _, r := range g.prog.Registers {
		g.pf("    register<bit<%d>>(%d) %s;\n", r.Width, r.Cells, sanitize(r.Name))
	}
	g.pf("\n")
}

func (g *p416) refExpr(r p4.Ref) string {
	switch r.Kind {
	case p4.RefConst:
		if r.Const > 4096 {
			return fmt.Sprintf("64w0x%x", r.Const)
		}
		return fmt.Sprintf("%d", r.Const)
	case p4.RefField:
		return g.fieldExpr(r.Field)
	case p4.RefParam:
		return fmt.Sprintf("p%d", r.Param)
	}
	return "0"
}

// castTo wraps an expression in a cast to the destination field's width when
// the operand widths might differ (P4-16 is strict about widths; casting
// unconditionally is always legal).
func (g *p416) castTo(id p4.FieldID, expr string) string {
	return fmt.Sprintf("(bit<%d>)(%s)", g.prog.Fields[id].Width, expr)
}

func (g *p416) opStmt(op p4.Op) string {
	dst := func() string { return g.fieldExpr(op.Dst.Field) }
	a := func() string { return g.refExpr(op.A) }
	b := func() string { return g.refExpr(op.B) }
	set := func(expr string) string {
		return fmt.Sprintf("%s = %s;", dst(), g.castTo(op.Dst.Field, expr))
	}
	switch op.Code {
	case p4.OpMov:
		return set(a())
	case p4.OpAdd:
		return set(a() + " + " + b())
	case p4.OpSub:
		return set(a() + " - " + b())
	case p4.OpMul:
		return set(a() + " * " + b())
	case p4.OpSatAdd:
		return set(a() + " |+| " + b())
	case p4.OpSatSub:
		return set(a() + " |-| " + b())
	case p4.OpAnd:
		return set(a() + " & " + b())
	case p4.OpOr:
		return set(a() + " | " + b())
	case p4.OpXor:
		return set(a() + " ^ " + b())
	case p4.OpNot:
		return set("~" + a())
	case p4.OpShl:
		return set(fmt.Sprintf("%s << (bit<8>)(%s)", a(), b()))
	case p4.OpShr:
		return set(fmt.Sprintf("%s >> (bit<8>)(%s)", a(), b()))
	case p4.OpRegRead:
		return fmt.Sprintf("%s.read(%s, (bit<32>)(%s));", sanitize(op.Reg), dst(), a())
	case p4.OpRegWrite:
		return fmt.Sprintf("%s.write((bit<32>)(%s), %s);", sanitize(op.Reg), a(), b())
	case p4.OpHash:
		return fmt.Sprintf(
			"hash(%s, HashAlgorithm.crc32_custom, 64w0, { %s, 8w%d }, 64w0x%x + 64w1);",
			dst(), a(), op.HashID, op.B.Const)
	case p4.OpDigest:
		fields := make([]string, len(op.Fields))
		for i, f := range op.Fields {
			fields[i] = g.fieldExpr(f)
		}
		return fmt.Sprintf("digest<digest%d_t>(1, { %s });", op.DigestID, strings.Join(fields, ", "))
	case p4.OpSetEgress:
		return fmt.Sprintf("standard_metadata.egress_spec = (bit<9>)(%s);", a())
	case p4.OpDrop:
		return "mark_to_drop(standard_metadata); meta.do_drop = 1;"
	}
	return "// unsupported op"
}

func (g *p416) actions() {
	names := make([]string, 0, len(g.prog.Actions))
	byName := map[string]*p4.Action{}
	for _, a := range g.prog.Actions {
		names = append(names, a.Name)
		byName[a.Name] = a
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		params := make([]string, a.NumParams)
		for i := range params {
			params[i] = fmt.Sprintf("bit<64> p%d", i)
		}
		g.pf("    action %s(%s) {\n", sanitize(a.Name), strings.Join(params, ", "))
		for _, op := range a.Ops {
			g.pf("        %s\n", g.opStmt(op))
		}
		g.pf("    }\n")
	}
	g.pf("\n")
}

func (g *p416) tables() {
	kindNames := map[p4.MatchKind]string{
		p4.MatchExact: "exact", p4.MatchLPM: "lpm", p4.MatchTernary: "ternary",
	}
	for _, t := range g.prog.Tables {
		g.pf("    table %s {\n        key = {\n", sanitize(t.Name))
		for _, k := range t.Keys {
			g.pf("            %s : %s;\n", g.fieldExpr(k.Field), kindNames[k.Kind])
		}
		g.pf("        }\n        actions = {\n")
		for _, an := range t.ActionNames {
			g.pf("            %s;\n", sanitize(an))
		}
		g.pf("        }\n")
		if t.DefaultAction != "" {
			args := make([]string, len(t.DefaultArgs))
			for i, v := range t.DefaultArgs {
				args[i] = fmt.Sprintf("%d", v)
			}
			g.pf("        default_action = %s(%s);\n", sanitize(t.DefaultAction), strings.Join(args, ", "))
		}
		g.pf("        size = %d;\n    }\n", t.MaxEntries)
	}
	g.pf("\n")
}

func (g *p416) condExpr(c p4.Cond) string {
	sym := map[p4.CmpOp]string{
		p4.CmpEq: "==", p4.CmpNe: "!=", p4.CmpLt: "<", p4.CmpLe: "<=",
		p4.CmpGt: ">", p4.CmpGe: ">=",
	}[c.Op]
	// Cast both sides to 64 bits so comparisons of differently sized
	// operands type-check.
	return fmt.Sprintf("(bit<64>)(%s) %s (bit<64>)(%s)", g.refExpr(c.A), sym, g.refExpr(c.B))
}

func (g *p416) stmts(list []p4.Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	for _, s := range list {
		switch st := s.(type) {
		case p4.ApplyStmt:
			g.pf("%s%s.apply();\n", indent, sanitize(st.Table))
		case p4.CallStmt:
			args := make([]string, len(st.Args))
			for i, v := range st.Args {
				args[i] = fmt.Sprintf("%d", v)
			}
			g.pf("%s%s(%s);\n", indent, sanitize(st.Action), strings.Join(args, ", "))
		case p4.IfStmt:
			g.pf("%sif (%s) {\n", indent, g.condExpr(st.Cond))
			g.stmts(st.Then, depth+1)
			if len(st.Else) > 0 {
				g.pf("%s} else {\n", indent)
				g.stmts(st.Else, depth+1)
			}
			g.pf("%s}\n", indent)
		}
	}
}

func (g *p416) ingress() {
	// Digest record types (one per digest ID actually used).
	ids := map[int][]p4.FieldID{}
	for _, a := range g.prog.Actions {
		for _, op := range a.Ops {
			if op.Code == p4.OpDigest {
				ids[op.DigestID] = op.Fields
			}
		}
	}
	digestIDs := make([]int, 0, len(ids))
	for id := range ids {
		digestIDs = append(digestIDs, id)
	}
	sort.Ints(digestIDs)
	for _, id := range digestIDs {
		g.pf("struct digest%d_t {\n", id)
		for i, f := range ids[id] {
			g.pf("    bit<%d> f%d; // %s\n", g.prog.Fields[f].Width, i, g.prog.Fields[f].Name)
		}
		g.pf("}\n\n")
	}

	g.pf("control Stat4Ingress(inout headers_t hdr, inout metadata_t meta,\n")
	g.pf("                     inout standard_metadata_t standard_metadata) {\n")
	g.registers()
	g.actions()
	g.tables()
	g.pf(`    apply {
        // Preamble: derived fields the IR parser computes.
        meta.ts_ns = (bit<64>)standard_metadata.ingress_global_timestamp * 1000; // us -> ns
        if (hdr.ipv4.isValid())  { meta.ipv4_valid = 1; }
        if (hdr.tcp.isValid())   { meta.tcp_valid = 1; }
        if (hdr.udp.isValid())   { meta.udp_valid = 1; }
        if (hdr.tcp.isValid() && (hdr.tcp.flags & 0x02) == 0x02 && (hdr.tcp.flags & 0x10) == 0) {
            meta.tcp_syn = 1;
        }
        if (hdr.echo.isValid()) {
            meta.echo_valid = 1;
            meta.echo_value = (bit<17>)hdr.echo.value + 17w32768;
        }

`)
	g.stmts(g.prog.Control, 2)
	g.pf("    }\n}\n\n")
}

func (g *p416) boilerplate() {
	g.pf(`control Stat4Egress(inout headers_t hdr, inout metadata_t meta,
                    inout standard_metadata_t standard_metadata) {
    apply { }
}

control Stat4VerifyChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control Stat4ComputeChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply {
        update_checksum(hdr.ipv4.isValid(),
            { hdr.ipv4.version, hdr.ipv4.ihl, hdr.ipv4.diffserv, hdr.ipv4.totalLen,
              hdr.ipv4.identification, hdr.ipv4.flags, hdr.ipv4.fragOffset,
              hdr.ipv4.ttl, hdr.ipv4.protocol, hdr.ipv4.srcAddr, hdr.ipv4.dstAddr },
            hdr.ipv4.hdrChecksum, HashAlgorithm.csum16);
    }
}

control Stat4Deparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
        pkt.emit(hdr.echo);
    }
}

V1Switch(
    Stat4Parser(),
    Stat4VerifyChecksum(),
    Stat4Ingress(),
    Stat4ComputeChecksum(),
    Stat4Deparser()
) main;
`)
}
