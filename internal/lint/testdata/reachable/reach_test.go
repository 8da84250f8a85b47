package reach

import "testing"

func TestBench(t *testing.T) {
	if Bench() != 1 {
		t.Fatal("Bench")
	}
}
