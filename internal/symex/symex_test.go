package symex

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/emu"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// decodeSteps assembles src and wraps every instruction in a Step.
func decodeSteps(t *testing.T, src string) []Step {
	t.Helper()
	r, err := asm.Assemble(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	var steps []Step
	pos := 0
	for pos < len(r.Code) {
		inst, err := isa.Decode(r.Code[pos:], 0x1000+uint64(pos))
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, Step{Inst: &inst})
		pos += int(inst.Len)
	}
	return steps
}

func TestPopRet(t *testing.T) {
	b := expr.NewBuilder()
	eff, err := Exec(b, decodeSteps(t, "pop rdi; ret"))
	if err != nil {
		t.Fatal(err)
	}
	if eff.End != EndRet {
		t.Errorf("end = %v", eff.End)
	}
	if eff.StackDelta != 16 {
		t.Errorf("delta = %d, want 16", eff.StackDelta)
	}
	if got := eff.Regs[isa.RDI]; got != b.Var(StackVarName(0), 64) {
		t.Errorf("rdi = %s, want stk_0", got)
	}
	if got := eff.NextRIP; got != b.Var(StackVarName(8), 64) {
		t.Errorf("nextRIP = %s, want stk_8", got)
	}
	if len(eff.Conds) != 0 {
		t.Errorf("conds = %v", eff.Conds)
	}
	if eff.Inputs[0] != 8 || eff.Inputs[8] != 8 {
		t.Errorf("inputs = %v", eff.Inputs)
	}
}

func TestJmpRegGadget(t *testing.T) {
	b := expr.NewBuilder()
	eff, err := Exec(b, decodeSteps(t, "pop rbp; mov edi, 0x601030; jmp rax"))
	if err != nil {
		t.Fatal(err)
	}
	if eff.End != EndJmpInd {
		t.Errorf("end = %v", eff.End)
	}
	if eff.NextRIP != b.Var(RegVarName(isa.RAX), 64) {
		t.Errorf("nextRIP = %s", eff.NextRIP)
	}
	if v, err := expr.Eval(eff.Regs[isa.RDI], expr.Env{}); err != nil || v != 0x601030 {
		t.Errorf("rdi = %s", eff.Regs[isa.RDI])
	}
	if eff.StackDelta != 8 {
		t.Errorf("delta = %d", eff.StackDelta)
	}
}

// The paper's Fig. 4(b): a conditional jump inside the gadget that must not
// be taken, yielding pre-condition rdx == rbx.
func TestConditionalGadgetFig4b(t *testing.T) {
	src := `
    pop rax
    mov rdx, rbx
    cmp rdx, rbx
    jne 0x2000
    pop rbx
    ret
`
	// Make the condition non-trivial: compare two different registers.
	src = `
    pop rax
    cmp rdx, rbx
    jne 0x2000
    pop rbx
    ret
`
	b := expr.NewBuilder()
	steps := decodeSteps(t, src)
	eff, err := Exec(b, steps) // all Taken=false: fall through the jne
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Conds) != 1 {
		t.Fatalf("conds = %v", eff.Conds)
	}
	// The pre-condition must hold exactly when rdx0 == rbx0.
	envEq := expr.Env{"rdx0": 7, "rbx0": 7}
	envNe := expr.Env{"rdx0": 7, "rbx0": 8}
	if ok, err := expr.EvalBool(eff.Conds[0], envEq); err != nil || !ok {
		t.Errorf("cond false under rdx==rbx: %v %v", ok, err)
	}
	if ok, err := expr.EvalBool(eff.Conds[0], envNe); err != nil || ok {
		t.Errorf("cond true under rdx!=rbx: %v %v", ok, err)
	}
	if eff.StackDelta != 24 {
		t.Errorf("delta = %d", eff.StackDelta)
	}
}

// Fig. 4(c): the conditional jump must be taken to reach the second half.
func TestConditionalGadgetTaken(t *testing.T) {
	r := asm.MustAssemble("pop rax; test rcx, rcx; jz 0x2000", 0x1000)
	var steps []Step
	pos := 0
	for pos < len(r.Code) {
		inst, err := isa.Decode(r.Code[pos:], 0x1000+uint64(pos))
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, Step{Inst: &inst, Taken: true})
		pos += int(inst.Len)
	}
	b := expr.NewBuilder()
	eff, err := Exec(b, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Conds) != 1 {
		t.Fatalf("conds = %v", eff.Conds)
	}
	if ok, _ := expr.EvalBool(eff.Conds[0], expr.Env{"rcx0": 0}); !ok {
		t.Error("taken condition should hold when rcx==0")
	}
	if ok, _ := expr.EvalBool(eff.Conds[0], expr.Env{"rcx0": 5}); ok {
		t.Error("taken condition should fail when rcx!=0")
	}
	if v, err := expr.Eval(eff.NextRIP, expr.Env{}); err != nil || v != 0x2000 {
		t.Errorf("nextRIP = %s", eff.NextRIP)
	}
}

func TestUnsupportedGadgets(t *testing.T) {
	b := expr.NewBuilder()
	cases := []string{
		"mov rsp, rax; ret",  // symbolic rsp
		"cqo; idiv rbx; ret", // division
		"add rax, rbx",       // no terminal branch
	}
	for _, src := range cases {
		_, err := Exec(b, decodeSteps(t, src))
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("Exec(%q) err = %v, want unsupported", src, err)
		}
	}
}

func TestStackWriteThenRead(t *testing.T) {
	b := expr.NewBuilder()
	eff, err := Exec(b, decodeSteps(t, "push rax; pop rbx; ret"))
	if err != nil {
		t.Fatal(err)
	}
	if eff.Regs[isa.RBX] != b.Var(RegVarName(isa.RAX), 64) {
		t.Errorf("rbx = %s, want rax0", eff.Regs[isa.RBX])
	}
	if eff.StackDelta != 8 { // push-pop cancels; ret consumes 8
		t.Errorf("delta = %d", eff.StackDelta)
	}
}

func TestSyscallGadget(t *testing.T) {
	b := expr.NewBuilder()
	eff, err := Exec(b, decodeSteps(t, "pop rax; syscall"))
	if err != nil {
		t.Fatal(err)
	}
	if eff.End != EndSyscall {
		t.Errorf("end = %v", eff.End)
	}
	if eff.NextRIP != nil {
		t.Errorf("nextRIP = %v", eff.NextRIP)
	}
}

func TestVarNames(t *testing.T) {
	if got := StackVarName(-16); got != "stk_m16" {
		t.Errorf("StackVarName(-16) = %q", got)
	}
	for _, off := range []int64{-24, -8, 0, 8, 1000} {
		got, ok := ParseStackVar(StackVarName(off))
		if !ok || got != off {
			t.Errorf("ParseStackVar round trip failed for %d: %d %v", off, got, ok)
		}
	}
	if _, ok := ParseStackVar("rax0"); ok {
		t.Error("ParseStackVar accepted rax0")
	}
	r, ok := IsRegVar("rdi0")
	if !ok || r != isa.RDI {
		t.Errorf("IsRegVar(rdi0) = %v %v", r, ok)
	}
	if _, ok := IsRegVar("stk_8"); ok {
		t.Error("IsRegVar accepted stk_8")
	}
}

// TestDifferentialAgainstEmulator is the keystone test: random gadgets are
// executed both symbolically and concretely, and the symbolic effect
// evaluated under the concrete initial state must reproduce the emulator's
// final state exactly.
func TestDifferentialAgainstEmulator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const iters = 600
	regs := []isa.Reg{isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RBP, isa.RSI, isa.RDI, isa.R8, isa.R12}
	pick := func() isa.Reg { return regs[rng.Intn(len(regs))] }

	for iter := 0; iter < iters; iter++ {
		// Generate a random gadget body.
		n := 1 + rng.Intn(5)
		var insts []isa.Inst
		for i := 0; i < n; i++ {
			switch rng.Intn(14) {
			case 0:
				insts = append(insts, isa.Inst{Op: isa.OpPop, A: isa.RegOp(pick())})
			case 1:
				insts = append(insts, isa.Inst{Op: isa.OpPush, A: isa.RegOp(pick())})
			case 2:
				insts = append(insts, isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(pick()), B: isa.RegOp(pick())})
			case 3:
				insts = append(insts, isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(pick()), B: isa.ImmOp(rng.Int63())})
			case 4:
				ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpOr}
				insts = append(insts, isa.Inst{Op: ops[rng.Intn(len(ops))], Size: 8, A: isa.RegOp(pick()), B: isa.RegOp(pick())})
			case 5:
				insts = append(insts, isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(pick()), B: isa.MemOp(isa.RSP, int32(8*rng.Intn(4)))})
			case 6:
				insts = append(insts, isa.Inst{Op: isa.OpMov, Size: 8, A: isa.MemOp(isa.RSP, int32(8*rng.Intn(4))), B: isa.RegOp(pick())})
			case 7:
				insts = append(insts, isa.Inst{Op: isa.OpInc, Size: 8, A: isa.RegOp(pick())})
			case 8:
				insts = append(insts, isa.Inst{Op: isa.OpNot, Size: 8, A: isa.RegOp(pick())})
			case 9:
				insts = append(insts, isa.Inst{Op: isa.OpNeg, Size: 8, A: isa.RegOp(pick())})
			case 10:
				insts = append(insts, isa.Inst{Op: isa.OpXchg, Size: 8, A: isa.RegOp(pick()), B: isa.RegOp(pick())})
			case 11:
				insts = append(insts, isa.Inst{Op: isa.OpLea, Size: 8, A: isa.RegOp(pick()), B: isa.MemOpIdx(pick(), isa.RBX, 2, int32(rng.Intn(64)))})
			case 12:
				insts = append(insts, isa.Inst{Op: isa.OpCmp, Size: 8, A: isa.RegOp(pick()), B: isa.RegOp(pick())})
			case 13:
				insts = append(insts, isa.Inst{Op: isa.OpXor, Size: 4, A: isa.RegOp(pick()), B: isa.RegOp(pick())})
			}
		}
		// Optionally add a cmp+jcc pair in the middle (branch within gadget).
		hasJcc := rng.Intn(3) == 0
		insts = append(insts, isa.Inst{Op: isa.OpRet})

		// Encode at base.
		const base = uint64(0x10000)
		var code []byte
		var addrs []uint64
		ok := true
		for _, inst := range insts {
			addrs = append(addrs, base+uint64(len(code)))
			enc, err := isa.Encode(inst, base+uint64(len(code)))
			if err != nil {
				ok = false
				break
			}
			code = append(code, enc...)
		}
		if !ok {
			continue
		}
		_ = hasJcc

		// Concrete machine setup.
		m := emu.NewMachine()
		m.Mem.Map(base, uint64(len(code)+16), emu.PermRead|emu.PermExec)
		m.Mem.WriteBytesForce(base, code, emu.PermRead|emu.PermExec)
		const stackBase = uint64(0x7FF0_0000)
		m.Mem.Map(stackBase, 0x4000, emu.PermRead|emu.PermWrite)
		rsp0 := stackBase + 0x2000
		initStack := make([]byte, 0x400)
		rng.Read(initStack)
		if err := m.Mem.WriteBytes(rsp0-0x200, initStack); err != nil {
			t.Fatal(err)
		}
		var initRegs [isa.MaxRegs]uint64
		for r := range initRegs {
			initRegs[r] = rng.Uint64()
		}
		initRegs[isa.RSP] = rsp0
		m.Regs = initRegs
		m.RIP = base

		// Run concretely, one step per instruction.
		var steps []Step
		emuFailed := false
		for i := range insts {
			inst, err := isa.Decode(code[m.RIP-base:], m.RIP)
			if err != nil {
				t.Fatalf("iter %d: decode: %v", iter, err)
			}
			_ = inst
			_ = i
			if _, err := m.Step(); err != nil {
				emuFailed = true
				break
			}
		}
		if emuFailed {
			continue
		}
		for i, inst := range insts {
			in := withAddr(inst, addrs[i], code, base)
			steps = append(steps, Step{Inst: &in})
		}

		// Symbolic execution.
		b := expr.NewBuilder()
		eff, err := Exec(b, steps)
		if errors.Is(err, ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("iter %d: symex: %v", iter, err)
		}

		// Build the evaluation environment from the concrete initial state.
		env := expr.Env{}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			env[RegVarName(r)] = initRegs[r]
		}
		env["zf0"], env["sf0"], env["of0"], env["cf0"], env["pf0"] = 0, 0, 0, 0, 0
		for off, size := range eff.Inputs {
			// Read from the pre-execution snapshot: inputs are the values
			// that were on the stack when the gadget started.
			idx := int(off) + 0x200
			if idx < 0 || idx+8 > len(initStack) {
				t.Fatalf("iter %d: input offset %d outside snapshot", iter, off)
			}
			var v uint64
			for b := 7; b >= 0; b-- {
				v = v<<8 | uint64(initStack[idx+b])
			}
			_ = size
			env[StackVarName(off)] = v
		}

		// Path condition must hold on the concrete path actually taken.
		for _, c := range eff.Conds {
			okc, err := expr.EvalBool(c, env)
			if err != nil || !okc {
				t.Fatalf("iter %d: path condition failed: %v %v", iter, okc, err)
			}
		}

		// Final registers must match.
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			want := m.Regs[r]
			if r == isa.RSP {
				continue // compared via StackDelta below
			}
			got, err := expr.Eval(eff.Regs[r], env)
			if err != nil {
				t.Fatalf("iter %d: eval %s: %v (expr %s)", iter, r, err, eff.Regs[r])
			}
			if got != want {
				t.Fatalf("iter %d: %s = %#x, emulator has %#x\ngadget:\n%s\nexpr: %s",
					iter, r, got, want, isa.DisasmText(code, base), eff.Regs[r])
			}
		}
		// Stack delta and next RIP.
		if uint64(int64(rsp0)+eff.StackDelta) != m.Regs[isa.RSP] {
			t.Fatalf("iter %d: delta %d, emu rsp %#x (start %#x)", iter, eff.StackDelta, m.Regs[isa.RSP], rsp0)
		}
		gotRIP, err := expr.Eval(eff.NextRIP, env)
		if err != nil || gotRIP != m.RIP {
			t.Fatalf("iter %d: nextRIP %#x vs emu %#x (%v)", iter, gotRIP, m.RIP, err)
		}
		// Stack writes must match memory contents.
		for off, w := range eff.StackWrites {
			got, err := expr.Eval(w.Val, env)
			if err != nil {
				t.Fatalf("iter %d: eval stack write: %v", iter, err)
			}
			want, err := m.Mem.Read(rsp0+uint64(off), 8)
			if err != nil {
				t.Fatalf("iter %d: read stack write: %v", iter, err)
			}
			// Only compare the written size's bytes; 8 for all generated ops.
			if got != want {
				t.Fatalf("iter %d: stack[%d] = %#x, emu %#x", iter, off, got, want)
			}
		}
	}
}

// withAddr returns the instruction as decoded from code (so Addr/Len match
// encoding reality).
func withAddr(inst isa.Inst, addr uint64, code []byte, base uint64) isa.Inst {
	dec, err := isa.Decode(code[addr-base:], addr)
	if err != nil {
		panic(err)
	}
	return dec
}
