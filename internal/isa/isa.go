// Package isa implements a substantial subset of the x86-64 instruction set:
// an instruction representation, a binary encoder, a binary decoder that can
// start at any byte offset (the property that gives rise to unaligned
// code-reuse gadgets), and an Intel-syntax printer.
//
// The subset covers the instructions emitted by the MiniC code generator and
// the obfuscation passes, plus everything a code-reuse gadget scanner needs:
// data movement, ALU operations, stack operations, direct/indirect/conditional
// control flow, and syscall.
package isa

import "fmt"

// Reg is a general-purpose 64-bit register. The numeric values match the
// x86-64 hardware register numbers used in ModRM/REX encoding.
type Reg uint8

// General-purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the number of x86-64 general-purpose registers.
	NumRegs = 16

	// MaxRegs is the largest register file any backend exposes (RV64's 32
	// integer registers). Fixed-size scratch arrays shared across backends
	// (e.g. the emulator register file) are sized by it.
	MaxRegs = 32
)

var _regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

var _regNames32 = [NumRegs]string{
	"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
	"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
}

var _regNames8 = [NumRegs]string{
	"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
	"r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b",
}

// String returns the 64-bit name of the register (e.g. "rax").
func (r Reg) String() string {
	if r < NumRegs {
		return _regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Name returns the register name at the given operand size in bytes (1, 4, 8).
func (r Reg) Name(size uint8) string {
	if r >= NumRegs {
		return r.String()
	}
	switch size {
	case 1:
		return _regNames8[r]
	case 4:
		return _regNames32[r]
	default:
		return _regNames[r]
	}
}

// RegByName maps a 64-bit register name (e.g. "rax") to its Reg value.
func RegByName(name string) (Reg, bool) {
	for i, n := range _regNames {
		if n == name {
			return Reg(i), true
		}
	}
	for i, n := range _regNames32 {
		if n == name {
			return Reg(i), true
		}
	}
	for i, n := range _regNames8 {
		if n == name {
			return Reg(i), true
		}
	}
	return 0, false
}

// Cond is an x86 condition code, numbered as in the hardware encoding
// (the low nibble of the 0F 8x / 0F 9x opcodes).
type Cond uint8

// Condition codes.
const (
	CondO  Cond = 0x0 // overflow
	CondNO Cond = 0x1 // not overflow
	CondB  Cond = 0x2 // below (unsigned <)
	CondAE Cond = 0x3 // above or equal (unsigned >=)
	CondE  Cond = 0x4 // equal / zero
	CondNE Cond = 0x5 // not equal / not zero
	CondBE Cond = 0x6 // below or equal (unsigned <=)
	CondA  Cond = 0x7 // above (unsigned >)
	CondS  Cond = 0x8 // sign (negative)
	CondNS Cond = 0x9 // not sign
	CondP  Cond = 0xA // parity even
	CondNP Cond = 0xB // parity odd
	CondL  Cond = 0xC // less (signed <)
	CondGE Cond = 0xD // greater or equal (signed >=)
	CondLE Cond = 0xE // less or equal (signed <=)
	CondG  Cond = 0xF // greater (signed >)
)

var _condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// String returns the condition suffix (e.g. "e" for equal).
func (c Cond) String() string {
	if c < 16 {
		return _condNames[c]
	}
	return fmt.Sprintf("cc(%d)", uint8(c))
}

// Negate returns the opposite condition (E <-> NE, L <-> GE, ...).
func (c Cond) Negate() Cond { return c ^ 1 }

// Op is an instruction mnemonic.
type Op uint8

// Instruction mnemonics. Direct versus indirect jumps and calls are
// distinguished by the operand kind (immediate target versus register or
// memory target), not by separate mnemonics.
const (
	OpInvalid Op = iota
	OpMov
	OpLea
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpCmp
	OpTest
	OpNot
	OpNeg
	OpImul // two-operand form: imul reg, r/m
	OpShl
	OpShr
	OpSar
	OpInc
	OpDec
	OpPush
	OpPop
	OpRet
	OpJmp
	OpJcc
	OpCall
	OpSyscall
	OpNop
	OpLeave
	OpInt3
	OpHlt
	OpXchg
	OpMovzx  // movzx reg, r/m8
	OpMovsxd // movsxd reg64, r/m32
	OpSetcc
	OpCqo
	OpIdiv

	// RISC-V specific mnemonics (never produced by the x86-64 decoder).
	// Three-operand ALU forms reuse the x86 mnemonics above with the C
	// operand set (add rd, rs1, rs2); the ops below have no x86 analogue.
	OpBcc   // compare-and-branch: A = target imm, B/C = rs1/rs2, Cond = relation
	OpJal   // jump-and-link to a non-standard link register: A = target imm, B = rd
	OpJalr  // indirect jump-and-link, non-standard link: A = rs1, B = rd, C = offset imm
	OpLoad  // sign-extending load: A = rd, B = mem, Size = source width
	OpLoadU // zero-extending load: A = rd, B = mem, Size = source width
	OpSlt   // set-less-than signed: A = rd, B = rs1, C = rs2/imm
	OpSltu  // set-less-than unsigned
	OpAuipc // A = rd, B = imm; rd = inst address + imm
	OpDiv   // signed divide (RISC-V M semantics: no trap)
	OpDivU  // unsigned divide
	OpRem   // signed remainder
	OpRemU  // unsigned remainder

	numOps
)

var _opNames = [numOps]string{
	OpInvalid: "invalid",
	OpMov:     "mov",
	OpLea:     "lea",
	OpAdd:     "add",
	OpSub:     "sub",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpCmp:     "cmp",
	OpTest:    "test",
	OpNot:     "not",
	OpNeg:     "neg",
	OpImul:    "imul",
	OpShl:     "shl",
	OpShr:     "shr",
	OpSar:     "sar",
	OpInc:     "inc",
	OpDec:     "dec",
	OpPush:    "push",
	OpPop:     "pop",
	OpRet:     "ret",
	OpJmp:     "jmp",
	OpJcc:     "j",
	OpCall:    "call",
	OpSyscall: "syscall",
	OpNop:     "nop",
	OpLeave:   "leave",
	OpInt3:    "int3",
	OpHlt:     "hlt",
	OpXchg:    "xchg",
	OpMovzx:   "movzx",
	OpMovsxd:  "movsxd",
	OpSetcc:   "set",
	OpCqo:     "cqo",
	OpIdiv:    "idiv",
	OpBcc:     "b",
	OpJal:     "jal",
	OpJalr:    "jalr",
	OpLoad:    "l",
	OpLoadU:   "lu",
	OpSlt:     "slt",
	OpSltu:    "sltu",
	OpAuipc:   "auipc",
	OpDiv:     "div",
	OpDivU:    "divu",
	OpRem:     "rem",
	OpRemU:    "remu",
}

// String returns the mnemonic name.
func (o Op) String() string {
	if o < numOps {
		return _opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OperandKind distinguishes the forms an instruction operand can take.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// Mem is a memory operand reference: [base + index*scale + disp] or
// [rip + disp].
type Mem struct {
	Base     Reg
	Index    Reg
	Scale    uint8 // 1, 2, 4, or 8; meaningful only when HasIndex
	Disp     int32
	HasBase  bool
	HasIndex bool
	RIPRel   bool // [rip + disp]; Base/Index unused
}

// Operand is a single instruction operand. Fields are ordered so the
// 12-byte Mem packs against Kind and Reg: 24 bytes, not 32.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Mem  Mem
	Imm  int64
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a [base + disp] memory operand.
func MemOp(base Reg, disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{Base: base, HasBase: true, Disp: disp}}
}

// MemOpIdx returns a [base + index*scale + disp] memory operand.
func MemOpIdx(base, index Reg, scale uint8, disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{
		Base: base, HasBase: true, Index: index, HasIndex: true, Scale: scale, Disp: disp,
	}}
}

// RIPOp returns a [rip + disp] memory operand.
func RIPOp(disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{RIPRel: true, Disp: disp}}
}

// Inst is one decoded or to-be-encoded instruction.
//
// Operand conventions:
//   - Two-operand instructions: A is the destination, B the source.
//   - One-operand instructions (push, pop, not, neg, inc, dec, idiv,
//     jmp/call indirect, setcc): the operand is A.
//   - Direct jmp/call/jcc: A is KindImm holding the *absolute* target
//     address (the decoder resolves rel8/rel32 displacements; the encoder
//     converts back to a displacement using the instruction address).
//
// Field order keeps the four one-byte fields together ahead of the 8-byte
// aligned ones, so an Inst is 88 bytes with no interior padding (the
// predecode table holds one per code byte; TestLayout pins the size).
type Inst struct {
	Op   Op
	Cond Cond  // condition for OpJcc, OpSetcc and OpBcc
	Size uint8 // operand size in bytes: 1, 2, 4 or 8

	// Len and Addr are decode metadata: the encoded length in bytes and the
	// virtual address the instruction was decoded at.
	Len  uint8
	Addr uint64

	A, B Operand
	// C is the third operand of RISC-V three-operand forms (add rd, rs1,
	// rs2/imm). KindNone for every x86-64 instruction.
	C Operand
}

// IsBranch reports whether the instruction transfers control (ret, jmp, jcc,
// call, syscall, hlt, int3).
func (i Inst) IsBranch() bool {
	switch i.Op {
	case OpRet, OpJmp, OpJcc, OpCall, OpSyscall, OpHlt, OpInt3, OpBcc, OpJal, OpJalr:
		return true
	default:
		return false
	}
}

// IsIndirectBranch reports whether the instruction is an indirect jump or
// call (target taken from a register or memory).
func (i Inst) IsIndirectBranch() bool {
	return (i.Op == OpJmp || i.Op == OpCall || i.Op == OpJalr) && i.A.Kind != KindImm
}

// IsDirectBranch reports whether the instruction is a direct jump, call or
// conditional jump with an immediate target.
func (i Inst) IsDirectBranch() bool {
	switch i.Op {
	case OpJmp, OpCall, OpJcc, OpBcc, OpJal:
		return i.A.Kind == KindImm
	default:
		return false
	}
}

// End returns the address of the byte just past this instruction. It takes
// a pointer because the gadget walk, symex and the emulator call it once
// per step through a *Inst, and a value receiver copies all 88 bytes there
// even when inlined.
func (i *Inst) End() uint64 { return i.Addr + uint64(i.Len) }
