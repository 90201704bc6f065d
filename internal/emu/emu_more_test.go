package emu

import (
	"errors"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

func TestMoreInstructions(t *testing.T) {
	tests := []struct {
		name string
		body string
		want uint64
	}{
		{"xchg", "mov rax, 1; mov rbx, 41; xchg rax, rbx; add rax, rbx", 42},
		{"setb-unsigned", "mov rbx, 1; cmp rbx, 2; setb al; movzx rax, al", 1},
		{"push-mem", "push 7; push qword [rsp]; pop rax; pop rbx; add rax, rbx", 14},
		{"ret-imm", "call f; jmp done; f: ret 0; done: mov rax, 9", 9},
		{"movsxd", "mov rbx, 0xFFFFFFFF; movsxd rax, ebx; neg rax", 1},
		{"sar-cl", "mov rax, -88; mov rcx, 2; sar rax, cl; neg rax", 22},
		{"shr-cl", "mov rax, 88; mov rcx, 2; shr rax, cl", 22},
		{"cqo32", "mov rax, 5; cqo; mov rax, rdx", 0},
		{"byte-store-load", "mov rbx, 0x11AA; push rbx; mov al, byte [rsp]; movzx rax, al", 0xAA},
		{"lea-rip", "lea rax, [rip+0]; sub rax, rax", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, os := runAsm(t, tt.body+exitTail, 0x401000)
			if os.ExitCode != tt.want {
				t.Errorf("exit = %d, want %d", os.ExitCode, tt.want)
			}
		})
	}
}

func TestSelfModifyingCodeExecutes(t *testing.T) {
	// A program that patches its own instruction stream (requires RWX),
	// exercising the icache's fetch-time permission handling.
	src := `
    movabs rbx, target
    mov byte [rbx+3], 42     # patch the imm8 of "mov rdi, 0"
target:
    mov rdi, 0
    mov rax, 60
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	os := NewOS()
	m.OS = os
	m.Mem.Map(0x401000, uint64(len(r.Code)), PermRead|PermWrite|PermExec)
	m.Mem.WriteBytesForce(0x401000, r.Code, PermRead|PermWrite|PermExec)
	m.SetupStack(0x7FFF0000, 0x10000)
	m.RIP = 0x401000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if os.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (patch not observed)", os.ExitCode)
	}
}

func TestSyscallEvents(t *testing.T) {
	src := `
    mov rax, 39              # getpid
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`
	_, os := runAsm2(t, src)
	if os.ExitCode != 4242 {
		t.Errorf("getpid = %d", os.ExitCode)
	}
	if os.EventFor(SysGetpid) == nil || os.LastEvent() == nil {
		t.Error("events not recorded")
	}
}

func runAsm2(t *testing.T, src string) (*Machine, *OS) {
	t.Helper()
	return runAsm(t, src, 0x401000)
}

func TestReadSyscall(t *testing.T) {
	src := `
    mov rax, 0               # read
    mov rdi, 0
    movabs rsi, 0x7FFF1000
    mov rdx, 8
    syscall
    mov rdi, rax             # bytes read
    mov rax, 60
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	os := NewOS()
	os.Stdin.Reset([]byte("hello"))
	m.OS = os
	m.Mem.Map(0x401000, uint64(len(r.Code)), PermRead|PermExec)
	m.Mem.WriteBytesForce(0x401000, r.Code, PermRead|PermExec)
	m.SetupStack(0x7FFF0000, 0x10000)
	m.RIP = 0x401000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if os.ExitCode != 5 {
		t.Errorf("read returned %d", os.ExitCode)
	}
	got, _ := m.Mem.ReadBytes(0x7FFF1000, 5)
	if string(got) != "hello" {
		t.Errorf("buffer = %q", got)
	}
}

func TestMmapSyscall(t *testing.T) {
	src := `
    mov rax, 9               # mmap
    mov rdi, 0
    mov rsi, 0x2000
    mov rdx, 3               # RW
    syscall
    mov rbx, rax
    mov qword [rbx], 77      # must be writable
    mov rdi, qword [rbx]
    mov rax, 60
    syscall
`
	_, os := runAsm2(t, src)
	if os.ExitCode != 77 {
		t.Errorf("mmap page not usable: exit %d", os.ExitCode)
	}
}

func TestLoadBinaryPermissions(t *testing.T) {
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x1000, Flags: sbf.FlagRead | sbf.FlagExec, Data: []byte{0xC3}})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x2000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: []byte{1}})
	m := NewMachine()
	m.Mem.LoadBinary(bin)
	if m.Mem.PermAt(0x1000)&PermExec == 0 {
		t.Error("text not executable")
	}
	if m.Mem.PermAt(0x2000)&PermWrite == 0 {
		t.Error("data not writable")
	}
	if err := m.Mem.WriteBytes(0x1000, []byte{0}); err == nil {
		t.Error("text writable")
	}
}

func TestMemFaultMessage(t *testing.T) {
	mf := &MemFault{Addr: 0x1234, Op: "write"}
	if !strings.Contains(mf.Error(), "write") || !strings.Contains(mf.Error(), "0x1234") {
		t.Errorf("fault message = %q", mf.Error())
	}
}

func TestFetchWindowAtPageEdge(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, PageSize, PermRead|PermExec)
	// Instruction bytes at the very end of the mapped page: the window must
	// truncate, not fault.
	m.WriteBytesForce(0x1000+PageSize-2, []byte{0x5F, 0xC3}, PermRead|PermExec)
	win, err := m.FetchWindow(0x1000+PageSize-2, 16)
	if err != nil || len(win) != 2 {
		t.Errorf("window = %d bytes, %v", len(win), err)
	}
	inst, err := isa.Decode(win, 0)
	if err != nil || inst.Op != isa.OpPop {
		t.Errorf("decode at edge: %v %v", inst, err)
	}
}

// TestForcedCodeWriteInvalidatesICache: WriteBytesForce over already-
// executed code must retire the cached decode, so the rewritten
// instruction runs rather than the stale one.
func TestForcedCodeWriteInvalidatesICache(t *testing.T) {
	assemble := func(src string) []byte {
		r, err := asm.Assemble(src, 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		return r.Code
	}
	m := NewMachine()
	m.Mem.Map(0x1000, PageSize, PermRead|PermExec)
	m.Mem.WriteBytesForce(0x1000, assemble("mov rax, 1; ret"), PermRead|PermExec)
	m.RIP = 0x1000
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.RAX] != 1 {
		t.Fatalf("rax = %d after the first step, want 1", m.Regs[isa.RAX])
	}
	m.Mem.WriteBytesForce(0x1000, assemble("mov rax, 2; ret"), PermRead|PermExec)
	m.RIP = 0x1000
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.RAX] != 2 {
		t.Errorf("rax = %d after the forced rewrite, want 2 (stale i-cache entry ran)", m.Regs[isa.RAX])
	}
}

// TestMprotectRevokesCachedExec: an instruction already in the i-cache
// must still fault once mprotect drops PROT_EXEC from its page.
func TestMprotectRevokesCachedExec(t *testing.T) {
	main, err := asm.Assemble(`
    movabs rbx, 0x402000
    call rbx
    mov rax, 10              # mprotect(0x402000, 4096, PROT_READ)
    movabs rdi, 0x402000
    mov rsi, 0x1000
    mov rdx, 1
    syscall
    call rbx
    mov rax, 60
    syscall
`, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := asm.Assemble("ret", 0x402000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.OS = NewOS()
	m.Mem.Map(0x401000, PageSize, PermRead|PermExec)
	m.Mem.WriteBytesForce(0x401000, main.Code, PermRead|PermExec)
	m.Mem.Map(0x402000, PageSize, PermRead|PermExec)
	m.Mem.WriteBytesForce(0x402000, fn.Code, PermRead|PermExec)
	m.SetupStack(0x7FFF0000, 0x10000)
	m.RIP = 0x401000
	err = m.Run(100)
	var mf *MemFault
	if !errors.As(err, &mf) || mf.Op != "exec" || mf.Addr != 0x402000 {
		t.Fatalf("run = %v, want an exec fault at 0x402000", err)
	}
}

// TestGenerationAdvances pins which memory operations open a new fetch
// generation, the trigger for the i-cache to re-decode and re-check exec
// permission.
func TestGenerationAdvances(t *testing.T) {
	m := NewMemory()
	steps := []struct {
		name string
		op   func()
	}{
		{"Map", func() { m.Map(0x1000, PageSize, PermRead|PermExec) }},
		{"WriteBytesForce to an executable page", func() { m.WriteBytesForce(0x1000, []byte{0xC3}, PermRead|PermExec) }},
		{"Protect", func() { m.Protect(0x1000, PageSize, PermRead) }},
		{"page-creating WriteBytesForce", func() { m.WriteBytesForce(0x5000, []byte{1}, PermRead|PermWrite) }},
	}
	for _, s := range steps {
		before := m.gen
		s.op()
		if m.gen == before {
			t.Errorf("%s did not advance the generation", s.name)
		}
	}
	// Data writes to a mapped, non-executable page change nothing a fetch
	// can see.
	before := m.gen
	m.WriteBytesForce(0x5000, []byte{2}, PermRead|PermWrite)
	if err := m.Write(0x5000, 3, 8); err != nil {
		t.Fatal(err)
	}
	if m.gen != before {
		t.Error("a data write advanced the generation")
	}
}
