package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestIP4RoundTrip(t *testing.T) {
	ip := ParseIP4(10, 0, 5, 1)
	if ip.String() != "10.0.5.1" {
		t.Fatalf("String = %q", ip.String())
	}
	if uint32(ip) != 0x0a000501 {
		t.Fatalf("value = %#x", uint32(ip))
	}
}

func TestPrefix(t *testing.T) {
	p := NewPrefix(ParseIP4(10, 0, 5, 77), 24)
	if p.String() != "10.0.5.0/24" {
		t.Fatalf("String = %q (host bits not cleared?)", p.String())
	}
	if !p.Contains(ParseIP4(10, 0, 5, 200)) {
		t.Fatal("address in prefix not contained")
	}
	if p.Contains(ParseIP4(10, 0, 6, 1)) {
		t.Fatal("address outside prefix contained")
	}
	all := NewPrefix(0, 0)
	if !all.Contains(ParseIP4(192, 168, 1, 1)) {
		t.Fatal("/0 does not contain everything")
	}
	host := NewPrefix(ParseIP4(1, 2, 3, 4), 32)
	if !host.Contains(ParseIP4(1, 2, 3, 4)) || host.Contains(ParseIP4(1, 2, 3, 5)) {
		t.Fatal("/32 containment wrong")
	}
	if NewPrefix(1, 40).Len != 32 || NewPrefix(1, -3).Len != 0 {
		t.Fatal("prefix length not clamped")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDPFrame(ParseIP4(10, 1, 1, 1), ParseIP4(10, 0, 5, 6), 1234, 80, 100)
	wire := p.Serialize()
	if !VerifyIPv4Checksum(wire) {
		t.Fatal("serialized frame has bad IPv4 checksum")
	}
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasIPv4 || !q.HasUDP || q.HasTCP {
		t.Fatalf("layers = ipv4:%v udp:%v tcp:%v", q.HasIPv4, q.HasUDP, q.HasTCP)
	}
	if q.IPv4.Src != p.IPv4.Src || q.IPv4.Dst != p.IPv4.Dst {
		t.Fatal("addresses corrupted")
	}
	if q.UDP.SrcPort != 1234 || q.UDP.DstPort != 80 {
		t.Fatal("ports corrupted")
	}
	if len(q.Payload) != 100 {
		t.Fatalf("payload %d bytes, want 100", len(q.Payload))
	}
	if q.WireLen != len(wire) {
		t.Fatalf("WireLen = %d, want %d", q.WireLen, len(wire))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCPFrame(ParseIP4(172, 16, 0, 9), ParseIP4(10, 0, 1, 6), 40000, 443, FlagSYN)
	p.TCP.Seq = 0xdeadbeef
	wire := p.Serialize()
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasTCP || q.HasUDP {
		t.Fatal("layer flags wrong")
	}
	if !q.TCP.SYN() {
		t.Fatal("SYN not preserved")
	}
	if q.TCP.Seq != 0xdeadbeef || q.TCP.DstPort != 443 {
		t.Fatal("TCP fields corrupted")
	}
}

func TestSYNDetection(t *testing.T) {
	synack := TCP{Flags: FlagSYN | FlagACK}
	if synack.SYN() {
		t.Fatal("SYN+ACK misclassified as connection attempt")
	}
	if !(TCP{Flags: FlagSYN}).SYN() {
		t.Fatal("pure SYN not detected")
	}
	if (TCP{Flags: FlagACK}).SYN() {
		t.Fatal("ACK misclassified")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	f := NewEchoFrame(MAC{1}, MAC{2}, -200)
	wire := f.Serialize()
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth.Type != EtherTypeEcho {
		t.Fatalf("ethertype %#x", uint16(q.Eth.Type))
	}
	req, err := UnmarshalEchoRequest(q.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Value != -200 {
		t.Fatalf("value = %d, want -200", req.Value)
	}
}

func TestEchoReplyRoundTrip(t *testing.T) {
	in := EchoReply{N: 1, Xsum: 2, Xsumsq: 4, Var: 0, SD: 0, Median: 7}
	out, err := UnmarshalEchoReply(AppendEchoReply(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if _, err := UnmarshalEchoReply(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatal("short reply accepted")
	}
	if _, err := UnmarshalEchoRequest(nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("short request accepted")
	}
}

func TestParseTruncated(t *testing.T) {
	wire := NewUDPFrame(1, 2, 3, 4, 50).Serialize()
	for _, cut := range []int{0, 5, 13, 15, 30, len(wire) - 120} {
		if cut < 0 || cut >= len(wire) {
			continue
		}
		if _, err := Parse(wire[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestParseBadVersion(t *testing.T) {
	wire := NewUDPFrame(1, 2, 3, 4, 8).Serialize()
	wire[14] = 6 << 4 // claim IPv6 in an IPv4 slot
	if _, err := Parse(wire); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

func TestParseBadTotalLen(t *testing.T) {
	wire := NewUDPFrame(1, 2, 3, 4, 8).Serialize()
	wire[16] = 0xff // total length way beyond the buffer
	wire[17] = 0xff
	if _, err := Parse(wire); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

func TestParseUnknownProtocolsPassThrough(t *testing.T) {
	p := &Packet{
		Eth:     Ethernet{Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 1, Proto: 99, Src: 1, Dst: 2},
		Payload: []byte{1, 2, 3},
	}
	q, err := Parse(p.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if q.HasTCP || q.HasUDP || !bytes.Equal(q.Payload, []byte{1, 2, 3}) {
		t.Fatal("unknown transport not passed through")
	}
	// Unknown ethertype likewise.
	raw := &Packet{Eth: Ethernet{Type: 0x1234}, Payload: []byte{9}}
	q, err = Parse(raw.Serialize())
	if err != nil || q.HasIPv4 || len(q.Payload) != 1 {
		t.Fatalf("unknown ethertype: %v %+v", err, q)
	}
}

// TestSerializeParseProperty round-trips randomized UDP frames.
func TestSerializeParseProperty(t *testing.T) {
	f := func(src, dst uint32, sport, dport uint16, n uint8) bool {
		p := NewUDPFrame(IP4(src), IP4(dst), sport, dport, int(n))
		q, err := Parse(p.Serialize())
		if err != nil {
			return false
		}
		return q.IPv4.Src == IP4(src) && q.IPv4.Dst == IP4(dst) &&
			q.UDP.SrcPort == sport && q.UDP.DstPort == dport && len(q.Payload) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC.String = %q", m.String())
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil || p.String() != "10.0.0.0/8" {
		t.Fatalf("ParsePrefix: %v %v", p, err)
	}
	p, err = ParsePrefix("192.168.1.77")
	if err != nil || p.String() != "192.168.1.77/32" {
		t.Fatalf("bare address: %v %v", p, err)
	}
	p, err = ParsePrefix("10.0.5.99/24")
	if err != nil || p.String() != "10.0.5.0/24" {
		t.Fatalf("host bits: %v %v", p, err)
	}
	for _, bad := range []string{"", "10.0.0.0/33", "10.0.0/8", "x.y.z.w/8", "10.0.0.0/-1"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) accepted", bad)
		}
	}
}

// VerifyIPv4Checksum recomputes the header checksum of a serialized frame's
// IPv4 header and compares it to the stored value.
func VerifyIPv4Checksum(frame []byte) bool {
	if len(frame) < ethLen+ipv4Len {
		return false
	}
	h := frame[ethLen : ethLen+ipv4Len]
	return ipv4Checksum(h) == binary.BigEndian.Uint16(h[10:12])
}
