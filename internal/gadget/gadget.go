// Package gadget implements Gadget-Planner's extraction stage (paper
// Section IV-B): decoding gadget candidates from every byte offset of the
// executable sections (finding unaligned gadgets), classifying them by
// termination (Table I), following and merging direct jumps, forking on
// conditional jumps (Fig. 4), and attaching the symbolic Table II record via
// symex.
package gadget

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// JmpType classifies a gadget by its control-flow shape (Table I).
type JmpType uint8

// Gadget classes.
const (
	TypeInvalid JmpType = iota
	TypeReturn          // ends with ret
	TypeUDJ             // unconditional direct jump
	TypeUIJ             // unconditional indirect jump (jmp/call reg or mem)
	TypeCDJ             // conditional, ends direct
	TypeCIJ             // conditional, ends indirect
	TypeSyscall         // ends with syscall
)

var _jmpTypeNames = map[JmpType]string{
	TypeReturn: "Return", TypeUDJ: "UDJ", TypeUIJ: "UIJ",
	TypeCDJ: "CDJ", TypeCIJ: "CIJ", TypeSyscall: "Syscall",
}

// String names the class as in the paper's Table I.
func (t JmpType) String() string {
	if n, ok := _jmpTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("JmpType(%d)", uint8(t))
}

// Gadget is one usable gadget with its Table II record.
type Gadget struct {
	// ID is the gadget's index in its pool.
	ID int
	// Location is the address of the first instruction (Table II).
	Location uint64
	// Len is the gadget length in bytes across all merged pieces (Table II).
	Len int
	// JmpType is the terminal jump classification (Table II).
	JmpType JmpType
	// Steps are the instructions along the gadget's path, with branch
	// directions for the conditional jumps passed through.
	Steps []symex.Step
	// Effect is the symbolic summary: post-conditions (register values,
	// stack writes, next RIP) and pre-conditions (path constraints).
	Effect *symex.Effect
	// ClobRegs are registers whose contents are overwritten (Table II).
	ClobRegs []isa.Reg
	// CtrlRegs are registers that end up holding an attacker-controlled
	// stack value (Table II's "can be controlled through the gadget").
	CtrlRegs []isa.Reg
	// Merged reports whether the gadget crosses a direct jump.
	Merged bool
	// HasCond reports whether the path passes through a conditional jump.
	HasCond bool
}

// NumInsts returns the instruction count along the gadget path.
func (g *Gadget) NumInsts() int { return len(g.Steps) }

// String renders "addr: inst; inst; ..." for diagnostics and reports, in
// the default backend's syntax. Use StringOn for a non-x64 gadget.
func (g *Gadget) String() string {
	return g.StringOn(isa.X64)
}

// StringOn renders the gadget with the given backend's instruction
// formatter — RV gadgets print RISC-V assembly rather than x64 mnemonics.
func (g *Gadget) StringOn(be isa.Backend) string {
	s := fmt.Sprintf("%#x:", g.Location)
	for _, st := range g.Steps {
		s += " " + be.FormatInst(st.Inst) + ";"
	}
	return s
}

// Classify computes the Table I class from the gadget's path shape.
func Classify(steps []symex.Step, end symex.EndKind) JmpType {
	hasCond := false
	for i := range steps {
		if op := steps[i].Inst.Op; op == isa.OpJcc || op == isa.OpBcc {
			hasCond = true
		}
	}
	switch end {
	case symex.EndRet:
		return TypeReturn
	case symex.EndSyscall:
		return TypeSyscall
	case symex.EndJmpInd, symex.EndCallInd:
		if hasCond {
			return TypeCIJ
		}
		return TypeUIJ
	case symex.EndJmpDir:
		if hasCond {
			return TypeCDJ
		}
		return TypeUDJ
	}
	return TypeInvalid
}

// Pool is the gadget library for one binary: the searchable, register-indexed
// collection the planner draws from (paper Section V).
type Pool struct {
	// Builder owns every expression in the pool's effects.
	Builder *expr.Builder
	// ISA is the canonical backend name the pool was extracted under
	// ("x64", "rv64", "rv64c"). Empty is read as the default x64, so pools
	// decoded from pre-multi-ISA artifacts stay valid.
	ISA string
	// Gadgets lists all usable gadgets, ID-indexed.
	Gadgets []*Gadget
	// ByReg indexes gadgets by the registers their effect writes.
	ByReg map[isa.Reg][]*Gadget
	// Syscalls lists syscall-terminated gadgets (attack goal anchors).
	Syscalls []*Gadget
	// Stats summarizes extraction.
	Stats Stats
}

// Stats counts extraction outcomes.
type Stats struct {
	// ScannedOffsets is how many byte offsets were tried as gadget starts.
	ScannedOffsets int
	// RawCandidates is how many branch-terminated sequences were decodable.
	RawCandidates int
	// Supported is how many candidates symex could model (pool size before
	// subsumption).
	Supported int
	// Unsupported counts candidates rejected by the symbolic executor.
	Unsupported int
	// MergedGadgets counts pool gadgets built across direct jumps.
	MergedGadgets int
	// ByType counts raw candidates per Table I class. (For a pool narrowed
	// by core.Config.GadgetFilter it instead counts the pooled gadgets per
	// class, so the stats describe what the filter kept.)
	ByType map[JmpType]int
}

// merge adds another stats record into s (shard aggregation).
func (s *Stats) merge(o Stats) {
	s.ScannedOffsets += o.ScannedOffsets
	s.RawCandidates += o.RawCandidates
	s.Supported += o.Supported
	s.Unsupported += o.Unsupported
	s.MergedGadgets += o.MergedGadgets
	for t, n := range o.ByType {
		s.ByType[t] += n
	}
}

// add inserts a gadget into the pool and its indexes.
func (p *Pool) add(g *Gadget) {
	g.ID = len(p.Gadgets)
	p.Gadgets = append(p.Gadgets, g)
	if g.JmpType == TypeSyscall {
		p.Syscalls = append(p.Syscalls, g)
	}
	for _, r := range g.ClobRegs {
		p.ByReg[r] = append(p.ByReg[r], g)
	}
}

// Size returns the number of usable gadgets.
func (p *Pool) Size() int { return len(p.Gadgets) }

// Backend resolves the pool's ISA backend; empty or unknown names resolve to
// the default x64 backend.
func (p *Pool) Backend() isa.Backend {
	be, ok := isa.ByName(p.ISA)
	if !ok {
		return isa.X64
	}
	return be
}

// Canon renders everything a pool consumer can observe — per-gadget record
// fields, path steps with branch directions, the full symbolic effect
// (clobbered-register expressions, stack writes by ascending offset, inputs,
// memory accesses, path conditions, next RIP), and the extraction stats — as
// one deterministic string. Two pools with equal Canon renderings are
// interchangeable to every downstream stage; the predecode equivalence tests
// and the extraction benchmark's identity matrix compare pools through it.
func (p *Pool) Canon() string {
	var sb strings.Builder
	be := p.Backend()
	// The backend line appears only for non-default pools, keeping every
	// pre-multi-ISA x64 canon rendering (and the hashes pinned on it)
	// byte-identical.
	if name := be.Name(); name != isa.DefaultISA {
		fmt.Fprintf(&sb, "isa=%s\n", name)
	}
	s := p.Stats
	fmt.Fprintf(&sb, "stats scanned=%d raw=%d supported=%d unsupported=%d merged=%d bytype=",
		s.ScannedOffsets, s.RawCandidates, s.Supported, s.Unsupported, s.MergedGadgets)
	for t := TypeReturn; t <= TypeSyscall; t++ {
		if n := s.ByType[t]; n != 0 {
			fmt.Fprintf(&sb, " %s=%d", t, n)
		}
	}
	fmt.Fprintf(&sb, "\ngadgets=%d syscalls=%d\n", len(p.Gadgets), len(p.Syscalls))
	for _, g := range p.Gadgets {
		eff := g.Effect
		fmt.Fprintf(&sb, "%d @%#x len=%d type=%s merged=%t cond=%t delta=%d end=%d\n",
			g.ID, g.Location, g.Len, g.JmpType, g.Merged, g.HasCond, eff.StackDelta, eff.End)
		sb.WriteString("  steps:")
		for _, st := range g.Steps {
			fmt.Fprintf(&sb, " [%#x %s", st.Inst.Addr, be.FormatInst(st.Inst))
			if st.Inst.Op == isa.OpJcc || st.Inst.Op == isa.OpBcc {
				fmt.Fprintf(&sb, " taken=%t", st.Taken)
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
		for _, r := range g.ClobRegs {
			fmt.Fprintf(&sb, "  %s=%s\n", be.RegName(r), eff.Regs[r])
		}
		// Rendered by hand with backend names; matches %v on []isa.Reg for x64.
		sb.WriteString("  ctrl=[")
		for i, r := range g.CtrlRegs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(be.RegName(r))
		}
		sb.WriteString("]\n")
		if len(eff.StackWrites) > 0 {
			offs := make([]int64, 0, len(eff.StackWrites))
			for o := range eff.StackWrites {
				offs = append(offs, o)
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			for _, off := range offs {
				w := eff.StackWrites[off]
				fmt.Fprintf(&sb, "  stk[%d]=%s sz=%d\n", off, w.Val, w.Size)
			}
		}
		if len(eff.Inputs) > 0 {
			offs := make([]int64, 0, len(eff.Inputs))
			for o := range eff.Inputs {
				offs = append(offs, o)
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			for _, off := range offs {
				fmt.Fprintf(&sb, "  in[%d] sz=%d\n", off, eff.Inputs[off])
			}
		}
		for _, a := range eff.MemReads {
			fmt.Fprintf(&sb, "  rd *(%s)=%s sz=%d\n", a.Addr, a.Val, a.Size)
		}
		for _, a := range eff.MemWrites {
			fmt.Fprintf(&sb, "  wr *(%s)=%s sz=%d\n", a.Addr, a.Val, a.Size)
		}
		for _, c := range eff.Conds {
			fmt.Fprintf(&sb, "  cond %s\n", c)
		}
		fmt.Fprintf(&sb, "  rip=%s\n", eff.NextRIP)
	}
	return sb.String()
}

// fillRecord computes the ClobRegs/CtrlRegs fields from the effect.
func fillRecord(b *expr.Builder, g *Gadget, be isa.Backend) {
	eff := g.Effect
	sp := be.SP()
	zero, hasZero := be.ZeroReg()
	for ri := range eff.Regs {
		r := isa.Reg(ri)
		if r == sp {
			continue // stack-pointer movement is tracked by StackDelta
		}
		if hasZero && r == zero {
			continue // the hardwired zero register is never clobbered
		}
		initial := b.Var(symex.RegVarNameOn(be, r), 64)
		if eff.Regs[r] == initial {
			continue
		}
		g.ClobRegs = append(g.ClobRegs, r)
		if v := eff.Regs[r]; v.Kind == expr.KindVar && symex.IsAttackerVar(v.Name) {
			g.CtrlRegs = append(g.CtrlRegs, r)
		}
	}
	sort.Slice(g.ClobRegs, func(i, j int) bool { return g.ClobRegs[i] < g.ClobRegs[j] })
	sort.Slice(g.CtrlRegs, func(i, j int) bool { return g.CtrlRegs[i] < g.CtrlRegs[j] })
}
