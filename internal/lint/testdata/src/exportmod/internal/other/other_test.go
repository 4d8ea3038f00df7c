package other

import (
	"testing"

	"exportmod/internal/lib"
)

func TestUsesLib(t *testing.T) {
	if lib.TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}
