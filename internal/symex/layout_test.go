package symex

import (
	"testing"
	"unsafe"
)

// TestStepLayout pins Step at a pointer plus a flag. Walk buffers and forks
// copy steps wholesale, so the instruction must stay behind the pointer.
func TestStepLayout(t *testing.T) {
	if got := unsafe.Sizeof(Step{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Step{}) = %d, want 16", got)
	}
}
