package stat4p4

import (
	"encoding/binary"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// EchoDeparser serialises echo replies for the Figure 5 validation app: when
// the program marked the packet as a reply, the outgoing frame swaps the
// Ethernet addresses and carries the refreshed statistical measures read
// from the final metadata fields. All other packets are forwarded unchanged.
type EchoDeparser struct {
	lib *Library
}

// echoReads lists every field Deparse reads; Build declares them with
// SetDeparserReads, so they hold their values after the pipeline. A field
// Deparse starts reading belongs here too.
func (l *Library) echoReads() []p4.FieldID {
	f := &l.f
	return []p4.FieldID{f.repValid, f.n, f.xsum, f.xsumsq, f.sqin, f.sqout, f.med}
}

// Deparse implements p4.Deparser, appending the outgoing frame into the
// switch's reusable buffer so the reply path allocates nothing.
func (d EchoDeparser) Deparse(ctx *p4.Ctx, orig *packet.Packet, buf []byte) []byte {
	f := &d.lib.f
	if ctx.Get(f.repValid) != 1 {
		return orig.AppendSerialize(buf)
	}
	// Ethernet header with the addresses swapped, then the reply payload —
	// byte-identical to serialising a reply Packet, without building one.
	buf = append(buf, orig.Eth.Src[:]...)
	buf = append(buf, orig.Eth.Dst[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(packet.EtherTypeEcho))
	return packet.AppendEchoReply(buf, packet.EchoReply{
		N:      ctx.Get(f.n),
		Xsum:   ctx.Get(f.xsum),
		Xsumsq: ctx.Get(f.xsumsq),
		Var:    ctx.Get(f.sqin),
		SD:     ctx.Get(f.sqout),
		Median: ctx.Get(f.med),
	})
}
