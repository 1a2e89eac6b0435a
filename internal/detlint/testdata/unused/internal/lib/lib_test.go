package lib

import "testing"

func TestUses(t *testing.T) {
	Unused()
	Kept()
	if Table == nil || Limit != 7 {
		t.Fatal("fixture broken")
	}
}
