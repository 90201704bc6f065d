package isa

import (
	"testing"
	"unsafe"
)

// TestLayout pins the in-memory sizes of Inst and Operand. The predecode
// table stores one Inst per code byte and the emulator's i-cache one per
// slot, so a new field (or a reorder that reintroduces padding) must be a
// deliberate choice, with DESIGN.md's size figures updated alongside.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Operand{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Operand{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Inst{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 88", got)
	}
}
