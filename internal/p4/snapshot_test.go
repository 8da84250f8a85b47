package p4

import "testing"

func TestSnapshotIsDeepCopy(t *testing.T) {
	p, std := buildCounterProgram()
	sw := mustSwitch(t, p, std)
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: 0, PrefixLen: 1}}, 0, "count_at", []uint64{2}); err != nil {
		t.Fatal(err)
	}
	snap := sw.Snapshot()
	// Mutating the snapshot must not touch the live switch.
	snap.Registers["counters"][2] = 999
	snap.Entries["bind"][0].Args[0] = 63
	reg, _ := sw.Register("counters")
	if v, _ := reg.Read(2); v == 999 {
		t.Fatal("snapshot aliases live registers")
	}
	if sw.Snapshot().Entries["bind"][0].Args[0] == 63 {
		t.Fatal("snapshot aliases live entries")
	}
}
