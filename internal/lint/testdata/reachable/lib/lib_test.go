package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 7 || ExemptTested() != 8 || alias() != 9 {
		t.Fatal("OnlyTested, ExemptTested or alias")
	}
}
