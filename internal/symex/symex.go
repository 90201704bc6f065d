// Package symex symbolically executes short straight-line x86-64 instruction
// sequences (gadget candidates) and produces their pre- and post-conditions
// as expr formulas, mirroring the role angr's symbolic execution plays in the
// paper.
//
// The model follows the paper's restrictions (Section IV-B): register state
// is fully symbolic; memory accesses must be stack-relative (a constant
// offset from the entry rsp) — anything else makes the gadget unsupported;
// values read from untouched stack slots become fresh "stack input"
// variables, which are exactly the attacker-controlled payload cells.
package symex

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// ErrUnsupported marks gadget candidates whose semantics the executor
// cannot (or deliberately does not) model: non-stack memory access,
// overlapping stack stores, division, and similar.
var ErrUnsupported = errors.New("symex: unsupported gadget semantics")

// unsupportedError defers message formatting until Error is called:
// extraction probes hundreds of thousands of candidate paths whose rejection
// errors are only ever tested with errors.Is, so eagerly rendering the
// message was pure garbage on the cold path.
type unsupportedError struct {
	format string
	args   []any
}

func (e *unsupportedError) Error() string {
	msg := e.format
	if len(e.args) > 0 {
		msg = fmt.Sprintf(e.format, e.args...)
	}
	return ErrUnsupported.Error() + ": " + msg
}

func (e *unsupportedError) Unwrap() error { return ErrUnsupported }

func unsupported(format string, args ...any) error {
	return &unsupportedError{format: format, args: args}
}

// RegVarName is the variable naming convention for initial register values:
// "rax0", "rbx0", ... (x86-64 names; see RegVarNameOn for other backends).
func RegVarName(r isa.Reg) string { return r.String() + "0" }

// RegVarNameOn names the initial-value variable of a register under a
// specific backend ("rax0" on x64, "a00"/"sp0"/... on RV64). For the x64
// backend it matches RegVarName exactly.
func RegVarNameOn(be isa.Backend, r isa.Reg) string { return be.RegName(r) + "0" }

// IsSPVar reports whether a variable name denotes the entry stack pointer
// of any backend ("rsp0" on x64, "sp0" on RV64). Planner components use it
// to special-case stack-pointer dataflow without threading a backend.
func IsSPVar(name string) bool { return name == "rsp0" || name == "sp0" }

// StackVarName names the attacker-controllable value read from the stack at
// the given byte offset from the entry rsp.
func StackVarName(off int64) string {
	if off < 0 {
		return "stk_m" + strconv.FormatInt(-off, 10)
	}
	return "stk_" + strconv.FormatInt(off, 10)
}

// ParseStackVar recovers the offset from a stack variable name.
func ParseStackVar(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "stk_")
	if !ok {
		return 0, false
	}
	neg := false
	if strings.HasPrefix(rest, "m") {
		neg, rest = true, rest[1:]
	}
	v, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// IsRegVar reports whether a variable name denotes an initial register value.
// Register names never collide across backends, so the lookup is
// backend-agnostic (x64 names are tried first).
func IsRegVar(name string) (isa.Reg, bool) {
	base, ok := strings.CutSuffix(name, "0")
	if !ok {
		return 0, false
	}
	return isa.AnyRegByName(base)
}

// DerefVarName names the unconstrained value obtained by dereferencing
// attacker-controlled memory (paper Section IV-B: "the variable is left
// unconstrained so that it is free to take on whatever value is necessary").
func DerefVarName(k int) string {
	if k < len(derefNames) {
		return derefNames[k]
	}
	return "dm_" + strconv.Itoa(k)
}

// derefNames precomputes the common low indices: deref names are built once
// per memory read on the extraction hot path, and paths rarely have more
// than a handful of reads.
var derefNames = func() (a [16]string) {
	for i := range a {
		a[i] = "dm_" + strconv.Itoa(i)
	}
	return
}()

// IsDerefVar reports whether a variable denotes a controlled-memory read.
func IsDerefVar(name string) bool { return strings.HasPrefix(name, "dm_") }

// IsAttackerVar reports whether the variable is attacker-chosen: a stack
// payload cell or a controlled-memory read.
func IsAttackerVar(name string) bool {
	if IsDerefVar(name) {
		return true
	}
	_, ok := ParseStackVar(name)
	return ok
}

// Step is one instruction on a chosen path. Taken matters only for
// conditional jumps that are not the final instruction of the gadget.
//
// Inst is shared and read-only: during extraction it points into the
// predecode table, and a pooled gadget's steps point at copies the pool
// owns. Nothing may write through it.
type Step struct {
	Inst  *isa.Inst
	Taken bool
}

// stackWrite is one store to the symbolic stack. Stores live in a small
// slice rather than a map: a path rarely touches more than a handful of
// slots, every consultation already scans all entries for overlaps, and a
// slice resets with a re-slice where a map reset walks every bucket —
// measurable when extraction runs hundreds of thousands of paths through a
// reused state.
type stackWrite struct {
	off  int64
	val  *expr.Node // 64-bit value (masked to size on read)
	size uint8
}

// stackInput is one fresh attacker-input read from the stack.
type stackInput struct {
	off  int64
	size uint8
}

// State is the symbolic machine state during gadget execution.
type State struct {
	B *expr.Builder
	// Regs is sized by the backend's register file (16 on x64, 32 on RV64).
	Regs []*expr.Node

	// Flags as boolean nodes.
	ZF, SF, OF, CF, PF *expr.Node

	writes []stackWrite // stack stores, in program order, offsets from rsp0
	inputs []stackInput // fresh stack reads, in first-read order

	// memReads/memWrites record dereferences of non-stack addresses whose
	// address expression is attacker-determined (e.g. [rbp-8] after a pop
	// rbp). Reads yield fresh unconstrained variables.
	memReads  []MemAccess
	memWrites []MemAccess

	conds   []*expr.Node // accumulated path conditions
	nextRIP *expr.Node   // set once the terminal branch executes
	endKind EndKind
	opaque  int // counter for opaque flag variables

	// Hot-path caches. rsp0 is the interned entry-rsp variable, consulted on
	// every stack-relative address computation. stackVars memoizes the
	// interned stk_N input variables by offset, and vc amortizes free-variable
	// collection in derefAddrOK. All three reference nodes interned in B —
	// stable for the builder's lifetime — so an Executor carries them across
	// paths without resetting.
	rsp0      *expr.Node
	stackVars map[int64]*expr.Node
	vc        expr.VarCollector

	// Backend stack/ABI model: the stack-pointer register, and (for
	// link-register ISAs) the call return-address register and hardwired
	// zero register. Defaults describe x64 (sp=RSP, no link, no zero).
	sp      isa.Reg
	link    isa.Reg
	hasLink bool
	zero    isa.Reg
	hasZero bool
}

// MemAccess is one controlled-memory dereference.
type MemAccess struct {
	// Addr is the effective-address expression over entry state.
	Addr *expr.Node
	// Val is the fresh dm_* variable (reads) or the stored value (writes).
	Val *expr.Node
	// Size is the access width in bytes.
	Size uint8
}

// EndKind classifies how the gadget transfers control at its end.
type EndKind uint8

// Gadget terminations.
const (
	EndNone    EndKind = iota
	EndRet             // ret: next RIP popped from the stack
	EndJmpInd          // jmp reg/mem
	EndCallInd         // call reg/mem (also pushes a return address)
	EndJmpDir          // jmp imm (only before merging)
	EndSyscall         // syscall: terminal for attack goals
)

var _endKindNames = map[EndKind]string{
	EndNone: "none", EndRet: "ret", EndJmpInd: "jmp-ind",
	EndCallInd: "call-ind", EndJmpDir: "jmp-dir", EndSyscall: "syscall",
}

// String names the termination kind.
func (k EndKind) String() string { return _endKindNames[k] }

// NewState returns the fully symbolic x86-64 entry state.
func NewState(b *expr.Builder) *State { return NewStateISA(b, isa.X64) }

// NewStateISA returns the fully symbolic entry state for a backend. A
// hardwired zero register enters as the constant 0 rather than a variable.
func NewStateISA(b *expr.Builder, be isa.Backend) *State {
	s := &State{B: b}
	s.initBackend(be)
	s.Regs = EntryRegs(b, be)
	s.ZF = b.Var("zf0", expr.BoolWidth)
	s.SF = b.Var("sf0", expr.BoolWidth)
	s.OF = b.Var("of0", expr.BoolWidth)
	s.CF = b.Var("cf0", expr.BoolWidth)
	s.PF = b.Var("pf0", expr.BoolWidth)
	s.rsp0 = s.Regs[s.sp]
	return s
}

// initBackend caches the backend's stack/ABI register model on the state.
func (s *State) initBackend(be isa.Backend) {
	s.sp = be.SP()
	s.link, s.hasLink = be.LinkReg()
	s.zero, s.hasZero = be.ZeroReg()
}

// EntryRegs interns the entry register values for a backend: one fresh
// variable per register, except a hardwired zero register, which is the
// constant 0. The builder interns nodes, so repeated calls return the same
// pointers.
func EntryRegs(b *expr.Builder, be isa.Backend) []*expr.Node {
	regs := make([]*expr.Node, be.NumRegs())
	zero, hasZero := be.ZeroReg()
	for r := range regs {
		if hasZero && isa.Reg(r) == zero {
			regs[r] = b.Const(0, 64)
			continue
		}
		regs[r] = b.Var(RegVarNameOn(be, isa.Reg(r)), 64)
	}
	return regs
}

func (s *State) c(v uint64) *expr.Node { return s.B.Const(v, 64) }

// rspOffset returns the constant byte offset of the current rsp from rsp0,
// or an error if rsp has become symbolic.
func (s *State) rspOffset() (int64, error) {
	diff := s.B.Sub(s.Regs[s.sp], s.rsp0)
	if !diff.IsConst() {
		return 0, unsupported("rsp is not a constant offset from entry rsp")
	}
	return int64(diff.Val), nil
}

// stackOffsetOf decides whether an effective-address expression is
// stack-relative and returns its offset.
func (s *State) stackOffsetOf(ea *expr.Node) (int64, error) {
	diff := s.B.Sub(ea, s.rsp0)
	if !diff.IsConst() {
		return 0, unsupported("memory access outside the stack")
	}
	return int64(diff.Val), nil
}

func overlap(aOff int64, aSize uint8, bOff int64, bSize uint8) bool {
	return aOff < bOff+int64(bSize) && bOff < aOff+int64(aSize)
}

// readStack reads size bytes at a constant stack offset. Untouched cells
// produce fresh attacker-controlled input variables.
func (s *State) readStack(off int64, size uint8) (*expr.Node, error) {
	for i := range s.writes {
		if w := &s.writes[i]; w.off == off && w.size == size {
			return s.B.And(w.val, s.c(maskOf(size))), nil
		}
	}
	for i := range s.writes {
		if w := &s.writes[i]; overlap(off, size, w.off, w.size) {
			return nil, unsupported("partially overlapping stack read at %d", off)
		}
	}
	seen := false
	for i := range s.inputs {
		in := &s.inputs[i]
		if in.off == off {
			if in.size != size {
				return nil, unsupported("stack slot %d read at sizes %d and %d", off, in.size, size)
			}
			seen = true
		} else if overlap(off, size, in.off, in.size) {
			return nil, unsupported("overlapping stack input at %d", off)
		}
	}
	if !seen {
		s.inputs = append(s.inputs, stackInput{off: off, size: size})
	}
	v := s.stackVar(off)
	if size == 8 {
		return v, nil
	}
	return s.B.And(v, s.c(maskOf(size))), nil
}

// stackVar interns the attacker-input variable for a stack offset, memoized
// so repeated reads of common offsets skip the name formatting and string
// hashing inside Builder.Var.
func (s *State) stackVar(off int64) *expr.Node {
	if v, ok := s.stackVars[off]; ok {
		return v
	}
	if s.stackVars == nil {
		s.stackVars = make(map[int64]*expr.Node)
	}
	v := s.B.Var(StackVarName(off), 64)
	s.stackVars[off] = v
	return v
}

// writeStack stores size bytes at a constant stack offset.
func (s *State) writeStack(off int64, size uint8, v *expr.Node) error {
	for i := range s.writes {
		if w := &s.writes[i]; w.off != off && overlap(off, size, w.off, w.size) {
			return unsupported("partially overlapping stack write at %d", off)
		}
	}
	for i := range s.writes {
		if w := &s.writes[i]; w.off == off {
			if w.size != size {
				return unsupported("stack slot %d written at sizes %d and %d", off, w.size, size)
			}
			w.val = v
			return nil
		}
	}
	s.writes = append(s.writes, stackWrite{off: off, val: v, size: size})
	return nil
}

func maskOf(size uint8) uint64 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFF_FFFF
	default:
		return ^uint64(0)
	}
}

// effAddr computes a memory operand's effective address expression.
func (s *State) effAddr(m isa.Mem, instEnd uint64) *expr.Node {
	if m.RIPRel {
		return s.c(instEnd + uint64(int64(m.Disp)))
	}
	ea := s.c(0)
	if m.HasBase {
		ea = s.Regs[m.Base]
	}
	if m.HasIndex {
		ea = s.B.Add(ea, s.B.Mul(s.Regs[m.Index], s.c(uint64(m.Scale))))
	}
	return s.B.Add(ea, s.c(uint64(int64(m.Disp))))
}

// readOperand produces a 64-bit expression masked to the operand size.
func (s *State) readOperand(op isa.Operand, size uint8, instEnd uint64) (*expr.Node, error) {
	switch op.Kind {
	case isa.KindReg:
		if size == 8 {
			return s.Regs[op.Reg], nil
		}
		return s.B.And(s.Regs[op.Reg], s.c(maskOf(size))), nil
	case isa.KindImm:
		return s.c(uint64(op.Imm) & maskOf(size)), nil
	case isa.KindMem:
		ea := s.effAddr(op.Mem, instEnd)
		off, err := s.stackOffsetOf(ea)
		if err == nil {
			return s.readStack(off, size)
		}
		return s.readDeref(ea, size)
	}
	return nil, unsupported("empty operand read")
}

// maxDerefs bounds controlled-memory accesses per gadget; beyond this the
// concretization constraints rarely stay satisfiable.
const maxDerefs = 4

// derefAddrOK checks an effective address is attacker-determined: built
// only from entry registers and attacker-chosen values.
func (s *State) derefAddrOK(ea *expr.Node) bool {
	for _, v := range s.vc.Collect(ea) {
		if IsAttackerVar(v.Name) {
			continue
		}
		if _, ok := IsRegVar(v.Name); ok {
			continue
		}
		return false
	}
	return true
}

// readDeref models a load through an attacker-determined pointer: the
// result is a fresh unconstrained variable; the planner must arrange for
// the address to point into controlled memory.
func (s *State) readDeref(ea *expr.Node, size uint8) (*expr.Node, error) {
	if !s.derefAddrOK(ea) || len(s.memReads)+len(s.memWrites) >= maxDerefs {
		return nil, unsupported("memory access outside the stack")
	}
	// Reject reads that may alias an earlier controlled-memory write (the
	// fresh-variable model would be wrong for them).
	for _, w := range s.memWrites {
		diff := s.B.Sub(ea, w.Addr)
		if diff.IsConst() {
			d := int64(diff.Val)
			if d < int64(w.Size) && d > -int64(size) {
				return nil, unsupported("read aliases earlier controlled write")
			}
		}
	}
	v := s.B.Var(DerefVarName(len(s.memReads)), 64)
	s.memReads = append(s.memReads, MemAccess{Addr: ea, Val: v, Size: size})
	if size == 8 {
		return v, nil
	}
	return s.B.And(v, s.c(maskOf(size))), nil
}

func (s *State) writeOperand(op isa.Operand, size uint8, v *expr.Node, instEnd uint64) error {
	switch op.Kind {
	case isa.KindReg:
		if s.hasZero && op.Reg == s.zero {
			return nil // writes to the hardwired zero register vanish
		}
		switch size {
		case 8:
			s.Regs[op.Reg] = v
		case 4:
			s.Regs[op.Reg] = s.B.And(v, s.c(0xFFFF_FFFF))
		case 1:
			s.Regs[op.Reg] = s.B.Or(
				s.B.And(s.Regs[op.Reg], s.c(^uint64(0xFF))),
				s.B.And(v, s.c(0xFF)),
			)
		}
		return nil
	case isa.KindMem:
		ea := s.effAddr(op.Mem, instEnd)
		off, err := s.stackOffsetOf(ea)
		if err == nil {
			return s.writeStack(off, size, v)
		}
		// Write through an attacker-determined pointer: a write-where
		// primitive aimed at scratch payload memory.
		if !s.derefAddrOK(ea) || len(s.memReads)+len(s.memWrites) >= maxDerefs {
			return unsupported("memory write outside the stack")
		}
		s.memWrites = append(s.memWrites, MemAccess{Addr: ea, Val: v, Size: size})
		return nil
	}
	return unsupported("write to non-lvalue")
}

// msb returns the boolean "bit w-1 of v is set" for the operand size.
func (s *State) msb(v *expr.Node, size uint8) *expr.Node {
	bit := uint64(1) << (uint(size)*8 - 1)
	return s.B.Ne(s.B.And(v, s.c(bit)), s.c(0))
}

// parity returns the even-parity boolean of the low byte.
func (s *State) parity(v *expr.Node) *expr.Node {
	low := s.B.And(v, s.c(0xFF))
	// Fold the byte: x ^= x>>4; x ^= x>>2; x ^= x>>1; parity even = bit0==0.
	x := low
	for _, sh := range []uint64{4, 2, 1} {
		x = s.B.Xor(x, s.B.Lshr(x, s.c(sh)))
	}
	return s.B.Eq(s.B.And(x, s.c(1)), s.c(0))
}

func (s *State) setPZS(r *expr.Node, size uint8) {
	masked := s.B.And(r, s.c(maskOf(size)))
	s.ZF = s.B.Eq(masked, s.c(0))
	s.SF = s.msb(masked, size)
	s.PF = s.parity(masked)
}

// opaqueFlag returns a fresh unconstrained boolean. Conditions built from it
// can never be satisfied by planning, which conservatively removes gadgets
// whose usability depends on flag bits we do not model exactly.
func (s *State) opaqueFlag(tag string) *expr.Node {
	s.opaque++
	return s.B.Var(fmt.Sprintf("opq_%s_%d", tag, s.opaque), expr.BoolWidth)
}

// cond builds the boolean for an x86 condition code from the current flags.
func (s *State) cond(c isa.Cond) *expr.Node {
	b := s.B
	switch c {
	case isa.CondO:
		return s.OF
	case isa.CondNO:
		return b.BNot(s.OF)
	case isa.CondB:
		return s.CF
	case isa.CondAE:
		return b.BNot(s.CF)
	case isa.CondE:
		return s.ZF
	case isa.CondNE:
		return b.BNot(s.ZF)
	case isa.CondBE:
		return b.BOr(s.CF, s.ZF)
	case isa.CondA:
		return b.BAnd(b.BNot(s.CF), b.BNot(s.ZF))
	case isa.CondS:
		return s.SF
	case isa.CondNS:
		return b.BNot(s.SF)
	case isa.CondP:
		return s.PF
	case isa.CondNP:
		return b.BNot(s.PF)
	case isa.CondL:
		return b.BNot(b.Eq(s.SF, s.OF))
	case isa.CondGE:
		return b.Eq(s.SF, s.OF)
	case isa.CondLE:
		return b.BOr(s.ZF, b.BNot(b.Eq(s.SF, s.OF)))
	default: // CondG
		return b.BAnd(b.BNot(s.ZF), b.Eq(s.SF, s.OF))
	}
}
