package controller

import (
	"fmt"
	"testing"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

func digest(slot, value, ts uint64) p4.Digest {
	return p4.Digest{ID: stat4p4.DigestAnomaly, Values: []uint64{slot, value, 0, 0, ts}}
}

func newHarness(t *testing.T) (*netem.Sim, *DrillDown, *stat4p4.Runtime) {
	t.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 2, Size: 256, Stages: 2})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	sim := netem.NewSim()
	dd := NewDrillDown(Config{
		RT:            rt,
		Sched:         sim,
		CtrlDelay:     1000,
		Monitored:     packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8),
		WindowSlot:    0,
		DrillStage:    1,
		DrillSlot:     1,
		SubnetBits:    24,
		SubnetDomain:  256,
		K:             2,
		Warmup:        100,
		MonitorWarmup: 500,
	})
	return sim, dd, rt
}

func TestDrillDownStateMachine(t *testing.T) {
	sim, dd, rt := newHarness(t)

	// A window alert before the monitor warmup is ignored.
	dd.HandleDigest(0, digest(0, 999, 100))
	if dd.Phase() != PhaseMonitoring {
		t.Fatal("warmup alert advanced the phase")
	}

	// A real spike alert advances to subnet location and, after the
	// control delay, installs the per-/24 binding.
	sim.At(2000, func() { dd.HandleDigest(2000, digest(0, 999, 1900)) })
	sim.Run()
	if dd.Phase() != PhaseLocateSubnet {
		t.Fatalf("phase = %v after spike alert", dd.Phase())
	}
	if n := len(rt.Switch().Snapshot().Entries["bind1"]); n != 1 {
		t.Fatalf("drill binding entries = %d", n)
	}
	r := dd.Result()
	if r.DetectedSwitchTs != 1900 || r.DetectedAt != 2000 {
		t.Fatalf("detection times %+v", r)
	}

	// Imbalance alert with a pre-binding switch timestamp is stale —
	// ignored even though it arrives after the binding.
	bindEffective := uint64(3000) // 2000 + CtrlDelay
	sim.At(4000, func() { dd.HandleDigest(4000, digest(1, 3, bindEffective-10)) })
	sim.Run()
	if dd.Phase() != PhaseLocateSubnet {
		t.Fatal("stale imbalance alert advanced the phase")
	}

	// Fresh imbalance alert names subnet index 3 → 10.0.3.0/24.
	sim.At(5000, func() { dd.HandleDigest(5000, digest(1, 3, 4500)) })
	sim.Run()
	if dd.Phase() != PhaseLocateHost {
		t.Fatalf("phase = %v after imbalance alert", dd.Phase())
	}
	if got := dd.Result().Subnet.String(); got != "10.0.3.0/24" {
		t.Fatalf("subnet = %s", got)
	}

	// Host alert names index 6 → 10.0.3.6. Must postdate the rebinding
	// (5000 + CtrlDelay + Warmup).
	sim.At(7000, func() { dd.HandleDigest(7000, digest(1, 6, 6500)) })
	sim.Run()
	if dd.Phase() != PhaseDone {
		t.Fatalf("phase = %v after host alert", dd.Phase())
	}
	if got := dd.Result().Host; got != packet.ParseIP4(10, 0, 3, 6) {
		t.Fatalf("host = %v", got)
	}
	if len(dd.Log) != 3 {
		t.Fatalf("log has %d entries: %v", len(dd.Log), dd.Log)
	}
}

func TestDrillDownIgnoresForeignDigests(t *testing.T) {
	sim, dd, _ := newHarness(t)
	dd.HandleDigest(1000, p4.Digest{ID: 99, Values: []uint64{0, 0, 0, 0, 900}})
	dd.HandleDigest(1000, digest(5, 0, 900)) // unrelated slot
	dd.HandleDigest(1000, p4.Digest{ID: stat4p4.DigestAnomaly, Values: []uint64{0}})
	sim.Run()
	if dd.Phase() != PhaseMonitoring {
		t.Fatal("foreign digest advanced the phase")
	}
}

func TestDrillDownInFlightStaleAlertAfterRebind(t *testing.T) {
	sim, dd, _ := newHarness(t)
	// Reach PhaseLocateHost.
	sim.At(2000, func() { dd.HandleDigest(2000, digest(0, 1, 1900)) })
	sim.At(5000, func() { dd.HandleDigest(5000, digest(1, 2, 4500)) })
	// A stale per-/24 alert emitted before the host rebinding (switch ts
	// 5500 < rebinding at 6000) arrives late; it must not be read as a
	// host identification.
	sim.At(8000, func() { dd.HandleDigest(8000, digest(1, 2, 5500)) })
	sim.Run()
	if dd.Phase() != PhaseLocateHost {
		t.Fatalf("stale alert advanced phase to %v (host %v)", dd.Phase(), dd.Result().Host)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseMonitoring.String() != "monitoring" || PhaseDone.String() != "done" ||
		Phase(9).String() == "" {
		t.Fatal("Phase.String wrong")
	}
}

// TestMitigation: with Mitigate set, completing the drill-down blackholes
// the identified destination after one more control-plane delay, and only
// that destination.
func TestMitigation(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 2, Size: 256, Stages: 2})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddRoute(packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8), 2); err != nil {
		t.Fatal(err)
	}
	sim := netem.NewSim()
	dd := NewDrillDown(Config{
		RT: rt, Sched: sim, CtrlDelay: 1000,
		Monitored:  packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8),
		DrillStage: 1, DrillSlot: 1, SubnetBits: 24, SubnetDomain: 256,
		K: 2, Warmup: 100, MonitorWarmup: 0, Mitigate: true,
	})
	sim.At(2000, func() { dd.HandleDigest(2000, digest(0, 1, 1900)) })
	sim.At(5000, func() { dd.HandleDigest(5000, digest(1, 3, 4500)) })
	sim.At(8000, func() { dd.HandleDigest(8000, digest(1, 6, 7500)) })
	sim.Run()
	if dd.Phase() != PhaseDone {
		t.Fatalf("phase = %v", dd.Phase())
	}
	r := dd.Result()
	if r.MitigatedAt == 0 || r.MitigatedAt < r.HostAt+1000 {
		t.Fatalf("MitigatedAt = %d, want ≥ HostAt+CtrlDelay (%d)", r.MitigatedAt, r.HostAt+1000)
	}
	victim := packet.ParseIP4(10, 0, 3, 6)
	if out := rt.Sharded().ProcessFrame(r.MitigatedAt+1, 1,
		packet.NewUDPFrame(1, victim, 5, 80, 10).Serialize()); out != nil {
		t.Fatal("victim traffic not blackholed")
	}
	other := packet.ParseIP4(10, 0, 3, 7)
	if out := rt.Sharded().ProcessFrame(r.MitigatedAt+2, 1,
		packet.NewUDPFrame(1, other, 5, 80, 10).Serialize()); len(out) != 1 {
		t.Fatal("collateral damage: neighbour traffic dropped")
	}
	if len(dd.Log) != 4 {
		t.Fatalf("log: %v", dd.Log)
	}
}

// String names the phase in test failures.
func (p Phase) String() string {
	switch p {
	case PhaseMonitoring:
		return "monitoring"
	case PhaseLocateSubnet:
		return "locate-subnet"
	case PhaseLocateHost:
		return "locate-host"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}
