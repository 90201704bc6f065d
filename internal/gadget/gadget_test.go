package gadget

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// binFrom assembles source into a one-section executable.
func binFrom(t *testing.T, src string, base uint64) *sbf.Binary {
	t.Helper()
	r, err := asm.Assemble(src, base)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{
		Name: ".text", Addr: base, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code,
	})
	return bin
}

// findByString locates a pool gadget whose rendering contains the fragment.
func findByString(p *Pool, frag string) *Gadget {
	for _, g := range p.Gadgets {
		if contains(g.String(), frag) {
			return g
		}
	}
	return nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestExtractPopRet(t *testing.T) {
	bin := binFrom(t, "pop rdi; ret", 0x1000)
	pool := Extract(bin, Options{})
	// Expect at least: "pop rdi; ret" and the unaligned "ret" alone.
	if pool.Size() < 2 {
		t.Fatalf("pool size = %d", pool.Size())
	}
	g := findByString(pool, "pop rdi")
	if g == nil {
		t.Fatal("pop rdi gadget not found")
	}
	if g.JmpType != TypeReturn {
		t.Errorf("type = %v", g.JmpType)
	}
	if len(g.CtrlRegs) != 1 || g.CtrlRegs[0] != isa.RDI {
		t.Errorf("ctrl regs = %v", g.CtrlRegs)
	}
	if len(g.ClobRegs) != 1 || g.ClobRegs[0] != isa.RDI {
		t.Errorf("clob regs = %v", g.ClobRegs)
	}
	if g.Effect.StackDelta != 16 {
		t.Errorf("delta = %d", g.Effect.StackDelta)
	}
	// ByReg index must find it under RDI.
	found := false
	for _, idx := range pool.ByReg[isa.RDI] {
		if idx == g {
			found = true
		}
	}
	if !found {
		t.Error("gadget not indexed by rdi")
	}
}

func TestExtractUnalignedGadgets(t *testing.T) {
	// The movabs immediate hides "pop rax; ret" at offset 7.
	src := "movabs rax, 0x00c3580000000000; ret"
	bin := binFrom(t, src, 0x1000)
	pool := Extract(bin, Options{})
	var g *Gadget
	for _, cand := range pool.Gadgets {
		if cand.Location == 0x1007 && cand.Steps[0].Inst.Op == isa.OpPop {
			g = cand
		}
	}
	if g == nil {
		t.Fatal("hidden pop rax gadget at 0x1007 not found")
	}
	if g.Steps[0].Inst.A.Reg != isa.RAX {
		t.Errorf("gadget = %s", g)
	}
}

func TestExtractMergesDirectJumps(t *testing.T) {
	src := `
g1: pop rsi
    jmp g2
    nop
g2: pop rdx
    ret
`
	bin := binFrom(t, src, 0x1000)
	pool := Extract(bin, Options{})
	g := findByString(pool, "pop rsi")
	if g == nil {
		t.Fatal("merged gadget not found")
	}
	if !g.Merged {
		t.Error("gadget not marked merged")
	}
	// The merged gadget controls both rsi and rdx.
	if len(g.CtrlRegs) != 2 {
		t.Errorf("ctrl regs = %v", g.CtrlRegs)
	}
	if pool.Stats.MergedGadgets == 0 {
		t.Error("no merged gadgets in stats")
	}
}

func TestExtractForksConditionals(t *testing.T) {
	src := `
    pop rax
    cmp rdx, rbx
    jne other
    pop rbx
    ret
other:
    pop rcx
    ret
`
	bin := binFrom(t, src, 0x1000)
	pool := Extract(bin, Options{})
	// Both paths from the gadget start must be in the pool: the fall-through
	// (controls rbx, pre-cond rdx==rbx) and the taken path (controls rcx,
	// pre-cond rdx!=rbx).
	var fall, taken *Gadget
	for _, g := range pool.Gadgets {
		if g.Location != 0x1000 {
			continue
		}
		if contains(g.String(), "pop rbx") {
			fall = g
		}
		if contains(g.String(), "pop rcx") {
			taken = g
		}
	}
	if fall == nil || taken == nil {
		t.Fatalf("missing fork variants: fall=%v taken=%v", fall, taken)
	}
	for _, g := range []*Gadget{fall, taken} {
		if !g.HasCond || len(g.Effect.Conds) != 1 {
			t.Errorf("gadget %s: hasCond=%v conds=%v", g, g.HasCond, g.Effect.Conds)
		}
	}
	// Check the conditions are complementary.
	envEq := expr.Env{"rdx0": 5, "rbx0": 5}
	fOK, _ := expr.EvalBool(fall.Effect.Conds[0], envEq)
	tOK, _ := expr.EvalBool(taken.Effect.Conds[0], envEq)
	if !fOK || tOK {
		t.Errorf("conds under equal: fall=%v taken=%v", fOK, tOK)
	}
}

func TestExtractSyscallGadget(t *testing.T) {
	bin := binFrom(t, "pop rax; syscall", 0x1000)
	pool := Extract(bin, Options{})
	if len(pool.Syscalls) == 0 {
		t.Fatal("no syscall gadgets")
	}
	g := findByString(pool, "syscall")
	if g.JmpType != TypeSyscall {
		t.Errorf("type = %v", g.JmpType)
	}
}

func TestExtractJOPGadget(t *testing.T) {
	bin := binFrom(t, "pop rbp; jmp rax", 0x1000)
	pool := Extract(bin, Options{})
	g := findByString(pool, "jmp rax")
	if g == nil {
		t.Fatal("jop gadget not found")
	}
	if g.JmpType != TypeUIJ {
		t.Errorf("type = %v", g.JmpType)
	}
	if g.Effect.NextRIP != pool.Builder.Var(symex.RegVarName(isa.RAX), 64) {
		t.Errorf("nextRIP = %s", g.Effect.NextRIP)
	}
}

func TestClassify(t *testing.T) {
	jcc := symex.Step{Inst: &isa.Inst{Op: isa.OpJcc}}
	plain := symex.Step{Inst: &isa.Inst{Op: isa.OpPop}}
	tests := []struct {
		steps []symex.Step
		end   symex.EndKind
		want  JmpType
	}{
		{[]symex.Step{plain}, symex.EndRet, TypeReturn},
		{[]symex.Step{plain}, symex.EndJmpDir, TypeUDJ},
		{[]symex.Step{plain}, symex.EndJmpInd, TypeUIJ},
		{[]symex.Step{jcc, plain}, symex.EndJmpDir, TypeCDJ},
		{[]symex.Step{jcc, plain}, symex.EndJmpInd, TypeCIJ},
		{[]symex.Step{jcc, plain}, symex.EndCallInd, TypeCIJ},
		{[]symex.Step{plain}, symex.EndSyscall, TypeSyscall},
	}
	for _, tt := range tests {
		if got := Classify(tt.steps, tt.end); got != tt.want {
			t.Errorf("Classify(end=%v) = %v, want %v", tt.end, got, tt.want)
		}
	}
}

func TestCount(t *testing.T) {
	src := `
    pop rdi
    ret
    jmp rax
    cmp rax, rbx
    jne 0x1000
    jmp rcx
`
	bin := binFrom(t, src, 0x1000)
	counts := Count(bin, 10)
	if counts[TypeReturn] == 0 {
		t.Error("no return gadgets counted")
	}
	if counts[TypeUIJ] == 0 {
		t.Error("no UIJ gadgets counted")
	}
	if counts[TypeCIJ] == 0 {
		t.Error("no CIJ gadgets counted (jne ... jmp rcx)")
	}
	if TotalCount(counts) == 0 {
		t.Error("total zero")
	}
}

func TestStatsTracked(t *testing.T) {
	// Include an unsupported gadget (division).
	bin := binFrom(t, "cqo; idiv rbx; ret", 0x1000)
	pool := Extract(bin, Options{})
	if pool.Stats.Unsupported == 0 {
		t.Error("unsupported gadgets not counted")
	}
	if pool.Stats.ScannedOffsets == 0 || pool.Stats.RawCandidates == 0 {
		t.Errorf("stats = %+v", pool.Stats)
	}
	// The plain "ret" suffix must still be supported.
	if pool.Stats.Supported == 0 {
		t.Error("no supported gadgets")
	}
}

func TestMaxInstsRespected(t *testing.T) {
	src := `
    nop; nop; nop; nop; nop; nop
    ret
`
	bin := binFrom(t, src, 0x1000)
	pool := Extract(bin, Options{MaxInsts: 3})
	for _, g := range pool.Gadgets {
		if g.NumInsts() > 3 {
			t.Errorf("gadget %s exceeds MaxInsts", g)
		}
	}
}
