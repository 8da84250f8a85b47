package stat4p4

import (
	"testing"

	"stat4/internal/packet"
)

func TestForwardingRoutes(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 8, Stages: 1})
	sw := rt.Sharded()
	if _, err := rt.AddRoute(packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddRoute(packet.NewPrefix(packet.ParseIP4(10, 0, 5, 0), 24), 7); err != nil {
		t.Fatal(err)
	}
	probe := func(dst packet.IP4) uint16 {
		out := sw.ProcessFrame(0, 1, packet.NewUDPFrame(1, dst, 5, 80, 10).Serialize())
		if len(out) != 1 {
			t.Fatalf("packet to %v not forwarded", dst)
		}
		return out[0].Port
	}
	if got := probe(packet.ParseIP4(10, 0, 5, 9)); got != 7 {
		t.Fatalf("longest prefix: port %d, want 7", got)
	}
	if got := probe(packet.ParseIP4(10, 9, 9, 9)); got != 3 {
		t.Fatalf("/8 route: port %d, want 3", got)
	}
	if got := probe(packet.ParseIP4(192, 168, 1, 1)); got != 0 {
		t.Fatalf("unrouted: port %d, want flood port 0", got)
	}
}

// TestLocalReaction: the data plane drops anomalous traffic on its own after
// the controller blackholes the victim — "locally react to anomalies".
func TestLocalReactionBlackhole(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 8, Stages: 1})
	sw := rt.Sharded()
	victim := packet.ParseIP4(10, 0, 1, 6)
	if _, err := rt.AddRoute(packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8), 2); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDPFrame(1, victim, 5, 80, 10).Serialize()
	if out := sw.ProcessFrame(0, 1, frame); len(out) != 1 {
		t.Fatal("traffic not flowing before the blackhole")
	}
	if _, err := rt.AddDropRoute(packet.NewPrefix(victim, 32)); err != nil {
		t.Fatal(err)
	}
	if out := sw.ProcessFrame(1, 1, frame); out != nil {
		t.Fatal("blackholed traffic forwarded")
	}
	// Other destinations in the /8 keep flowing.
	other := packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 1, 7), 5, 80, 10).Serialize()
	if out := sw.ProcessFrame(2, 1, other); len(out) != 1 || out[0].Port != 2 {
		t.Fatal("collateral damage from the blackhole")
	}
}

// TestEchoOverridesForwarding: an echo frame bounces to its ingress port
// even with routes installed.
func TestEchoOverridesForwarding(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 512, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: EchoBias, Size: 512, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddRoute(packet.NewPrefix(0, 0), 9); err != nil {
		t.Fatal(err)
	}
	out := rt.Sharded().ProcessFrame(0, 5, packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 3).Serialize())
	if len(out) != 1 || out[0].Port != 5 {
		t.Fatalf("echo reply went to port %v, want ingress 5", out)
	}
}

// TestMalformedEchoIgnored: a truncated echo payload fails extraction, so no
// distribution updates and no reply marking happens.
func TestMalformedEchoIgnored(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 512, Stages: 1, Echo: true})
	if _, err := rt.Bind(Binding{Kind: "freq-echo", Match: EchoOnly(),
		Base: EchoBias, Size: 512, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	bad := &packet.Packet{
		Eth:     packet.Ethernet{Type: packet.EtherTypeEcho},
		Payload: []byte{0x01}, // one byte: too short for an echo request
	}
	out := sw.ProcessFrame(0, 1, bad.Serialize())
	m := mustRead(t, rt, Moments, 0)
	if m.N != 0 || m.Xsum != 0 {
		t.Fatalf("malformed echo updated the distribution: %+v", m)
	}
	// The frame is still forwarded (as a plain L2 frame), not answered.
	if len(out) == 1 {
		if _, err := packet.UnmarshalEchoReply(mustParse(t, out[0].Data).Payload); err == nil {
			t.Fatal("malformed echo got a reply")
		}
	}
}

func mustParse(t *testing.T, b []byte) *packet.Packet {
	t.Helper()
	p, err := packet.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
