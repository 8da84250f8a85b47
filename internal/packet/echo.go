package packet

import (
	"encoding/binary"
	"fmt"
)

// EchoRequest is the payload of the Figure 5 validation frames: a single
// integer between −255 and 255 whose occurrences the switch tracks as a
// frequency distribution.
type EchoRequest struct {
	Value int16
}

// EchoReply carries the switch's statistical measures back to the host,
// which compares them against its own software computation.
type EchoReply struct {
	N      uint64 // number of distinct values observed
	Xsum   uint64 // total observations
	Xsumsq uint64 // sum of squared frequencies
	Var    uint64 // N·Xsumsq − Xsum²
	SD     uint64 // approximate sqrt of Var
	Median uint64 // current median marker (offset into the value domain)
}

const (
	echoReqLen   = 2
	echoReplyLen = 48
)

// MarshalEchoRequest encodes the request payload.
func MarshalEchoRequest(r EchoRequest) []byte {
	b := make([]byte, echoReqLen)
	binary.BigEndian.PutUint16(b, uint16(r.Value))
	return b
}

// UnmarshalEchoRequest decodes a request payload.
func UnmarshalEchoRequest(b []byte) (EchoRequest, error) {
	if len(b) < echoReqLen {
		return EchoRequest{}, fmt.Errorf("%w: %d bytes for echo request", ErrTruncated, len(b))
	}
	return EchoRequest{Value: int16(binary.BigEndian.Uint16(b))}, nil
}

// AppendEchoReply appends the encoded reply payload to dst, allocating only
// when dst lacks capacity — the echo deparser's per-packet path.
func AppendEchoReply(dst []byte, r EchoReply) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.N)
	dst = binary.BigEndian.AppendUint64(dst, r.Xsum)
	dst = binary.BigEndian.AppendUint64(dst, r.Xsumsq)
	dst = binary.BigEndian.AppendUint64(dst, r.Var)
	dst = binary.BigEndian.AppendUint64(dst, r.SD)
	return binary.BigEndian.AppendUint64(dst, r.Median)
}

// UnmarshalEchoReply decodes a reply payload.
func UnmarshalEchoReply(b []byte) (EchoReply, error) {
	if len(b) < echoReplyLen {
		return EchoReply{}, fmt.Errorf("%w: %d bytes for echo reply", ErrTruncated, len(b))
	}
	return EchoReply{
		N:      binary.BigEndian.Uint64(b[0:8]),
		Xsum:   binary.BigEndian.Uint64(b[8:16]),
		Xsumsq: binary.BigEndian.Uint64(b[16:24]),
		Var:    binary.BigEndian.Uint64(b[24:32]),
		SD:     binary.BigEndian.Uint64(b[32:40]),
		Median: binary.BigEndian.Uint64(b[40:48]),
	}, nil
}

// NewEchoFrame builds an Ethernet frame carrying an echo request.
func NewEchoFrame(src, dst MAC, value int16) *Packet {
	return &Packet{
		Eth:     Ethernet{Dst: dst, Src: src, Type: EtherTypeEcho},
		Payload: MarshalEchoRequest(EchoRequest{Value: value}),
		WireLen: ethLen + echoReqLen,
	}
}

// NewUDPFrame builds an Ethernet+IPv4+UDP frame with a zero-filled payload of
// the given length, the workhorse of the traffic generators.
func NewUDPFrame(src, dst IP4, sport, dport uint16, payloadLen int) *Packet {
	return &Packet{
		Eth:     Ethernet{Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 64, Proto: ProtoUDP, Src: src, Dst: dst},
		HasUDP:  true,
		UDP:     UDP{SrcPort: sport, DstPort: dport},
		Payload: make([]byte, payloadLen),
		WireLen: ethLen + ipv4Len + udpLen + payloadLen,
	}
}

// NewTCPFrame builds an Ethernet+IPv4+TCP frame with the given flags.
func NewTCPFrame(src, dst IP4, sport, dport uint16, flags uint8) *Packet {
	return &Packet{
		Eth:     Ethernet{Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst},
		HasTCP:  true,
		TCP:     TCP{SrcPort: sport, DstPort: dport, Flags: flags, Window: 65535},
		WireLen: ethLen + ipv4Len + tcpLen,
	}
}
