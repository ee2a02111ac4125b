package lib

import "testing"

func TestHelper(t *testing.T) {
	if testHelper() != 1 {
		t.Fatal("testHelper")
	}
}
