package controller

import (
	"math/rand"
	"testing"

	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

// TestModeSplitEndToEnd runs the full Section 5 loop on a live switch: a
// frame-size distribution turns out bimodal, the controller pulls the
// counters once, plans the split, and rebinds two slots that then track the
// modes separately with far tighter spreads.
func TestModeSplitEndToEnd(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 3, Size: 128, Stages: 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: frame sizes in 16-byte buckets across the full domain.
	const shift = 4
	lenBind, err := rt.BindFreqLen(0, 0, stat4p4.AllIPv4(), shift, 0, 128, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()

	// Two traffic classes: small control packets (~96-160B) and bulk data
	// (~960-1120B).
	rng := rand.New(rand.NewSource(21))
	sizes := func() int {
		if rng.Intn(2) == 0 {
			return 96 + rng.Intn(64)
		}
		return 960 + rng.Intn(160)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			payload := sizes() - 42 // headers
			f := packet.NewUDPFrame(1, packet.IP4(rng.Uint32()), 5, 80, payload)
			sw.ProcessPacket(uint64(i), 1, f)
		}
	}
	send(20000)

	// Controller analyses the snapshot.
	hist, err := stat4p4.Read(rt, stat4p4.Counters, 0)
	if err != nil {
		t.Fatal(err)
	}
	modes, ok := PlanModeSplit(hist, 0)
	if !ok {
		t.Fatal("bimodal size distribution not recognised")
	}
	joint, _ := stat4p4.Read(rt, stat4p4.Moments, 0)

	// Retune: stop the joint tracking, track each mode on its own slot.
	if err := rt.Unbind(0, lenBind); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqLen(0, 1, stat4p4.AllIPv4(), shift, modes[0].Base, modes[0].Size, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqLen(1, 2, stat4p4.AllIPv4(), shift, modes[1].Base, modes[1].Size, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	send(20000)

	lo, _ := stat4p4.Read(rt, stat4p4.Moments, 1)
	hi, _ := stat4p4.Read(rt, stat4p4.Moments, 2)
	if lo.Xsum == 0 || hi.Xsum == 0 {
		t.Fatalf("a mode slot saw no traffic: lo=%+v hi=%+v", lo, hi)
	}
	// Roughly half the traffic lands in each mode.
	if lo.Xsum < 8000 || hi.Xsum < 8000 {
		t.Fatalf("mode masses skewed: %d / %d", lo.Xsum, hi.Xsum)
	}
	// The whole point of splitting: each mode's scaled spread is far below
	// the joint distribution's, restoring outlier sensitivity.
	if lo.SD*4 > joint.SD || hi.SD*4 > joint.SD {
		t.Fatalf("per-mode sd (%d, %d) not well below joint sd %d", lo.SD, hi.SD, joint.SD)
	}
}
