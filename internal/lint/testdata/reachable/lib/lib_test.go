package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 7 || ExemptTested() != 8 {
		t.Fatal("OnlyTested or ExemptTested")
	}
}
