package p4

import "stat4/internal/packet"

// StdFields holds the IDs of the standard metadata fields every program
// declares: intrinsic metadata (port, timestamp, length, egress, drop) and
// the parsed header fields of the Ethernet/IPv4/TCP/UDP stack plus the Stat4
// echo header. DeclareStdFields registers them on a program; the switch's
// fixed-function parser fills them per packet.
type StdFields struct {
	InPort  FieldID // std.in_port
	TsNs    FieldID // std.ts_ns, ingress timestamp in ns
	WireLen FieldID // std.wire_len, frame length in bytes
	Egress  FieldID // std.egress, output port chosen by the program
	Drop    FieldID // std.drop, 1 to drop

	EthType FieldID // eth.type

	IPv4Valid FieldID // ipv4.valid
	IPv4Src   FieldID // ipv4.src
	IPv4Dst   FieldID // ipv4.dst
	IPv4Proto FieldID // ipv4.proto
	IPv4Len   FieldID // ipv4.len

	TCPValid FieldID // tcp.valid
	TCPSport FieldID // tcp.sport
	TCPDport FieldID // tcp.dport
	TCPFlags FieldID // tcp.flags
	TCPSyn   FieldID // tcp.syn — 1 for a connection-attempt SYN

	UDPValid FieldID // udp.valid
	UDPSport FieldID // udp.sport
	UDPDport FieldID // udp.dport

	EchoValid FieldID // echo.valid
	EchoValue FieldID // echo.value, the request integer biased by +32768 into unsigned space
}

// EchoBias shifts the signed echo test integer (−255..255 on the wire,
// int16) into unsigned space so it can index frequency counters: stored
// value = raw + 32768. The echo application then subtracts its own base.
const EchoBias = 32768

// DeclareStdFields declares the standard fields on a program and returns
// their IDs.
func DeclareStdFields(p *Program) StdFields {
	return StdFields{
		InPort:  p.AddField("std.in_port", 16),
		TsNs:    p.AddField("std.ts_ns", 64),
		WireLen: p.AddField("std.wire_len", 32),
		Egress:  p.AddField("std.egress", 16),
		Drop:    p.AddField("std.drop", 1),

		EthType: p.AddField("eth.type", 16),

		IPv4Valid: p.AddField("ipv4.valid", 1),
		IPv4Src:   p.AddField("ipv4.src", 32),
		IPv4Dst:   p.AddField("ipv4.dst", 32),
		IPv4Proto: p.AddField("ipv4.proto", 8),
		IPv4Len:   p.AddField("ipv4.len", 16),

		TCPValid: p.AddField("tcp.valid", 1),
		TCPSport: p.AddField("tcp.sport", 16),
		TCPDport: p.AddField("tcp.dport", 16),
		TCPFlags: p.AddField("tcp.flags", 8),
		TCPSyn:   p.AddField("tcp.syn", 1),

		UDPValid: p.AddField("udp.valid", 1),
		UDPSport: p.AddField("udp.sport", 16),
		UDPDport: p.AddField("udp.dport", 16),

		EchoValid: p.AddField("echo.valid", 1),
		EchoValue: p.AddField("echo.value", 17),
	}
}

// all lists the standard fields.
func (s *StdFields) all() []FieldID {
	return []FieldID{
		s.InPort, s.TsNs, s.WireLen, s.Egress, s.Drop, s.EthType,
		s.IPv4Valid, s.IPv4Src, s.IPv4Dst, s.IPv4Proto, s.IPv4Len,
		s.TCPValid, s.TCPSport, s.TCPDport, s.TCPFlags, s.TCPSyn,
		s.UDPValid, s.UDPSport, s.UDPDport, s.EchoValid, s.EchoValue,
	}
}

// extract fills the standard fields from a decoded packet, the simulator's
// fixed parse graph.
func (s *StdFields) extract(ctx *Ctx, tsNs uint64, inPort uint16, pkt *packet.Packet) {
	ctx.Set(s.InPort, uint64(inPort))
	ctx.Set(s.TsNs, tsNs)
	ctx.Set(s.WireLen, uint64(pkt.WireLen))
	ctx.Set(s.EthType, uint64(pkt.Eth.Type))
	if pkt.HasIPv4 {
		ctx.Set(s.IPv4Valid, 1)
		ctx.Set(s.IPv4Src, uint64(pkt.IPv4.Src))
		ctx.Set(s.IPv4Dst, uint64(pkt.IPv4.Dst))
		ctx.Set(s.IPv4Proto, uint64(pkt.IPv4.Proto))
		ctx.Set(s.IPv4Len, uint64(pkt.IPv4.TotalLen))
	}
	if pkt.HasTCP {
		ctx.Set(s.TCPValid, 1)
		ctx.Set(s.TCPSport, uint64(pkt.TCP.SrcPort))
		ctx.Set(s.TCPDport, uint64(pkt.TCP.DstPort))
		ctx.Set(s.TCPFlags, uint64(pkt.TCP.Flags))
		if pkt.TCP.SYN() {
			ctx.Set(s.TCPSyn, 1)
		}
	}
	if pkt.HasUDP {
		ctx.Set(s.UDPValid, 1)
		ctx.Set(s.UDPSport, uint64(pkt.UDP.SrcPort))
		ctx.Set(s.UDPDport, uint64(pkt.UDP.DstPort))
	}
	if pkt.Eth.Type == packet.EtherTypeEcho {
		if req, err := packet.UnmarshalEchoRequest(pkt.Payload); err == nil {
			ctx.Set(s.EchoValid, 1)
			ctx.Set(s.EchoValue, uint64(int64(req.Value)+EchoBias))
		}
	}
}
