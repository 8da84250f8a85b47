// Package packet implements the small slice of the packet world the Stat4
// experiments need: Ethernet, IPv4, TCP and UDP headers with strict parsing
// and serialization, IPv4 prefixes for longest-prefix matching, and the
// experimental Stat4 echo header used by the Figure 5 validation setup.
//
// The design follows the layered-decoder shape of gopacket, reduced to the
// fixed protocol stack the switch simulator parses: a Packet is decoded
// eagerly from bytes, each present layer is a value field, and serialization
// rebuilds the wire format including the IPv4 header checksum.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes understood by the parser.
const (
	EtherTypeIPv4 EtherType = 0x0800
	// EtherTypeEcho is the experimental ethertype carrying Stat4 echo
	// payloads (a signed test integer, answered with the switch's
	// statistical measures).
	EtherTypeEcho EtherType = 0x88B5
)

// IPProto identifies the transport protocol of an IPv4 packet.
type IPProto uint8

// Transport protocol numbers.
const (
	ProtoTCP IPProto = 6
	ProtoUDP IPProto = 17
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-separated hex notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP4 is an IPv4 address in host byte order, so prefix arithmetic is plain
// integer masking.
type IP4 uint32

// ParseIP4 builds an address from its four octets.
func ParseIP4(a, b, c, d byte) IP4 {
	return IP4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad notation.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IP4
	Len  int // 0..32
}

// NewPrefix returns addr/len with the host bits of addr zeroed.
func NewPrefix(addr IP4, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & IP4(prefixMask(length)), Len: length}
}

func prefixMask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(length))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP4) bool {
	return uint32(ip)&prefixMask(p.Len) == uint32(p.Addr)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst, Src MAC
	Type     EtherType
}

// IPv4 is the 20-byte (optionless) IPv4 header. TotalLen covers header plus
// payload, as on the wire.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    IPProto
	Checksum uint16
	Src, Dst IP4
}

// TCP is the 20-byte (optionless) TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
}

// SYN reports whether the SYN flag is set without ACK — a connection
// attempt, the value of interest in the SYN-flood use case.
func (t TCP) SYN() bool { return t.Flags&FlagSYN != 0 && t.Flags&FlagACK == 0 }

// UDP is the 8-byte UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Len              uint16
	Checksum         uint16
}

// Packet is a decoded frame. Exactly the layers present on the wire are
// flagged; Payload holds the bytes after the innermost parsed header.
type Packet struct {
	Eth     Ethernet
	HasIPv4 bool
	IPv4    IPv4
	HasTCP  bool
	TCP     TCP
	HasUDP  bool
	UDP     UDP
	Payload []byte
	// WireLen is the original frame length in bytes, the per-packet volume
	// contribution for byte-counting distributions.
	WireLen int
}

// Errors returned by Parse.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadHeader = errors.New("packet: malformed header")
)

const (
	ethLen  = 14
	ipv4Len = 20
	tcpLen  = 20
	udpLen  = 8
)

// Parse decodes an Ethernet frame. Unknown ethertypes and transports leave
// the remaining bytes in Payload rather than failing, like a switch that
// forwards what it cannot parse.
func Parse(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := ParseInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto decodes an Ethernet frame into a caller-owned Packet, overwriting
// its previous contents. It allocates nothing, so tight per-packet loops (the
// switch's ingress parser) can reuse one Packet as scratch. Payload aliases b.
func ParseInto(p *Packet, b []byte) error {
	if len(b) < ethLen {
		return fmt.Errorf("%w: %d bytes for Ethernet", ErrTruncated, len(b))
	}
	*p = Packet{WireLen: len(b)}
	copy(p.Eth.Dst[:], b[0:6])
	copy(p.Eth.Src[:], b[6:12])
	p.Eth.Type = EtherType(binary.BigEndian.Uint16(b[12:14]))
	rest := b[ethLen:]
	if p.Eth.Type != EtherTypeIPv4 {
		p.Payload = rest
		return nil
	}
	if len(rest) < ipv4Len {
		return fmt.Errorf("%w: %d bytes for IPv4", ErrTruncated, len(rest))
	}
	vihl := rest[0]
	if vihl>>4 != 4 {
		return fmt.Errorf("%w: IP version %d", ErrBadHeader, vihl>>4)
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < ipv4Len {
		return fmt.Errorf("%w: IHL %d", ErrBadHeader, ihl)
	}
	if len(rest) < ihl {
		return fmt.Errorf("%w: IHL %d with %d bytes", ErrTruncated, ihl, len(rest))
	}
	p.HasIPv4 = true
	p.IPv4.TOS = rest[1]
	p.IPv4.TotalLen = binary.BigEndian.Uint16(rest[2:4])
	p.IPv4.ID = binary.BigEndian.Uint16(rest[4:6])
	p.IPv4.TTL = rest[8]
	p.IPv4.Proto = IPProto(rest[9])
	p.IPv4.Checksum = binary.BigEndian.Uint16(rest[10:12])
	p.IPv4.Src = IP4(binary.BigEndian.Uint32(rest[12:16]))
	p.IPv4.Dst = IP4(binary.BigEndian.Uint32(rest[16:20]))
	if int(p.IPv4.TotalLen) < ihl || int(p.IPv4.TotalLen) > len(rest) {
		return fmt.Errorf("%w: IPv4 total length %d of %d", ErrBadHeader, p.IPv4.TotalLen, len(rest))
	}
	body := rest[ihl:p.IPv4.TotalLen]
	switch p.IPv4.Proto {
	case ProtoTCP:
		if len(body) < tcpLen {
			return fmt.Errorf("%w: %d bytes for TCP", ErrTruncated, len(body))
		}
		p.HasTCP = true
		p.TCP.SrcPort = binary.BigEndian.Uint16(body[0:2])
		p.TCP.DstPort = binary.BigEndian.Uint16(body[2:4])
		p.TCP.Seq = binary.BigEndian.Uint32(body[4:8])
		p.TCP.Ack = binary.BigEndian.Uint32(body[8:12])
		off := int(body[12]>>4) * 4
		if off < tcpLen || off > len(body) {
			return fmt.Errorf("%w: TCP offset %d", ErrBadHeader, off)
		}
		p.TCP.Flags = body[13] & 0x1f
		p.TCP.Window = binary.BigEndian.Uint16(body[14:16])
		p.TCP.Checksum = binary.BigEndian.Uint16(body[16:18])
		p.Payload = body[off:]
	case ProtoUDP:
		if len(body) < udpLen {
			return fmt.Errorf("%w: %d bytes for UDP", ErrTruncated, len(body))
		}
		p.HasUDP = true
		p.UDP.SrcPort = binary.BigEndian.Uint16(body[0:2])
		p.UDP.DstPort = binary.BigEndian.Uint16(body[2:4])
		p.UDP.Len = binary.BigEndian.Uint16(body[4:6])
		p.UDP.Checksum = binary.BigEndian.Uint16(body[6:8])
		if int(p.UDP.Len) < udpLen || int(p.UDP.Len) > len(body) {
			return fmt.Errorf("%w: UDP length %d of %d", ErrBadHeader, p.UDP.Len, len(body))
		}
		p.Payload = body[udpLen:p.UDP.Len]
	default:
		p.Payload = body
	}
	return nil
}

// Serialize rebuilds the frame's wire bytes. Lengths and the IPv4 checksum
// are recomputed from the layers present; stored checksum fields for TCP and
// UDP are emitted as-is (the simulator does not verify transport checksums,
// matching bmv2's default).
func (p *Packet) Serialize() []byte { return p.AppendSerialize(nil) }

// AppendSerialize appends the frame's wire bytes to dst and returns the
// extended slice. With a dst of sufficient capacity it performs no
// allocation, which is what the switch's deparsers rely on to keep the
// per-packet path allocation-free.
func (p *Packet) AppendSerialize(dst []byte) []byte {
	transportLen := len(p.Payload)
	switch {
	case p.HasTCP:
		transportLen += tcpLen
	case p.HasUDP:
		transportLen += udpLen
	}
	networkLen := transportLen
	if p.HasIPv4 {
		networkLen += ipv4Len
	}
	start := len(dst)
	dst = grow(dst, ethLen+networkLen)
	b := dst[start:]

	copy(b[0:6], p.Eth.Dst[:])
	copy(b[6:12], p.Eth.Src[:])
	binary.BigEndian.PutUint16(b[12:14], uint16(p.Eth.Type))
	b = b[ethLen:]

	if p.HasIPv4 {
		b[0] = 4<<4 | ipv4Len/4
		b[1] = p.IPv4.TOS
		binary.BigEndian.PutUint16(b[2:4], uint16(ipv4Len+transportLen))
		binary.BigEndian.PutUint16(b[4:6], p.IPv4.ID)
		b[6], b[7] = 0, 0 // flags and fragment offset
		b[8] = p.IPv4.TTL
		b[9] = uint8(p.IPv4.Proto)
		binary.BigEndian.PutUint32(b[12:16], uint32(p.IPv4.Src))
		binary.BigEndian.PutUint32(b[16:20], uint32(p.IPv4.Dst))
		binary.BigEndian.PutUint16(b[10:12], ipv4Checksum(b[:ipv4Len]))
		b = b[ipv4Len:]
	}

	switch {
	case p.HasTCP:
		binary.BigEndian.PutUint16(b[0:2], p.TCP.SrcPort)
		binary.BigEndian.PutUint16(b[2:4], p.TCP.DstPort)
		binary.BigEndian.PutUint32(b[4:8], p.TCP.Seq)
		binary.BigEndian.PutUint32(b[8:12], p.TCP.Ack)
		b[12] = (tcpLen / 4) << 4
		b[13] = p.TCP.Flags
		binary.BigEndian.PutUint16(b[14:16], p.TCP.Window)
		binary.BigEndian.PutUint16(b[16:18], p.TCP.Checksum)
		b[18], b[19] = 0, 0 // urgent pointer
		copy(b[tcpLen:], p.Payload)
	case p.HasUDP:
		binary.BigEndian.PutUint16(b[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(b[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(b[4:6], uint16(udpLen+len(p.Payload)))
		binary.BigEndian.PutUint16(b[6:8], p.UDP.Checksum)
		copy(b[udpLen:], p.Payload)
	default:
		copy(b, p.Payload)
	}
	return dst
}

// grow extends dst by n bytes, reusing capacity when it can. The new bytes
// are not guaranteed to be zero; callers overwrite every position.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[: len(dst)+n : cap(dst)]
	}
	return append(dst, make([]byte, n)...)
}

// ipv4Checksum computes the Internet checksum over the header with its
// checksum field zeroed.
func ipv4Checksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		if i == 10 {
			continue // checksum field treated as zero
		}
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ParsePrefix parses CIDR notation ("10.0.0.0/8"). A bare address parses as
// a /32.
func ParsePrefix(s string) (Prefix, error) {
	var a, b, c, d byte
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return Prefix{}, fmt.Errorf("packet: bad prefix length in %q", s)
		}
		length = n
		s = s[:i]
	}
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return Prefix{}, fmt.Errorf("packet: bad address in %q: %v", s, err)
	}
	return NewPrefix(ParseIP4(a, b, c, d), length), nil
}
