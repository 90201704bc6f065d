// Package asm implements a small two-pass textual assembler for the x86-64
// subset in internal/isa.
//
// Syntax is Intel-flavoured, one instruction per line or per ';'-separated
// field ("pop rdi; ret"). '#' starts a comment. Labels are "name:"
// definitions; a label may be used as a branch target or as an immediate.
// Supported directives: .byte, .quad, .asciz, .align.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// item is one assembly statement after parsing.
type item struct {
	label string // label definition ("" if none)

	inst    isa.Inst
	hasInst bool
	// labelRef names a label whose address should replace the immediate of
	// operand A (branch target) or B (mov/lea source).
	labelRefA string
	labelRefB string

	data  []byte // literal bytes (.byte/.quad/.asciz payloads)
	quads []quadRef
	align int
	line  int
}

// quadRef is a .quad entry that may reference a label.
type quadRef struct {
	value    int64
	labelRef string
}

// SyntaxError reports a problem in the assembly source.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

func synErr(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Result is the output of assembling a source text.
type Result struct {
	Code   []byte
	Labels map[string]uint64
}

// Assemble translates source into machine code based at the given address.
func Assemble(src string, base uint64) (*Result, error) {
	return AssembleWithSymbols(src, base, nil)
}

// AssembleWithSymbols assembles with pre-defined external symbols (e.g.
// addresses of data-section globals) available as labels.
func AssembleWithSymbols(src string, base uint64, extern map[string]uint64) (*Result, error) {
	items, err := parse(src)
	if err != nil {
		return nil, err
	}
	return layout(items, base, extern)
}

// MustAssemble is a test/example helper that panics on error.
func MustAssemble(src string, base uint64) *Result {
	r, err := Assemble(src, base)
	if err != nil {
		panic(err)
	}
	return r
}

func parse(src string) ([]item, error) {
	lines := strings.Split(src, "\n")
	// Nearly every line holds one statement, so the line count sizes the
	// item slice without regrowth.
	items := make([]item, 0, len(lines))
	for lineNo, line := range lines {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			var err error
			if items, err = parseStmt(items, stmt, lineNo+1); err != nil {
				return nil, err
			}
		}
	}
	return items, nil
}

// parseStmt appends the items of one statement to items.
func parseStmt(items []item, stmt string, line int) ([]item, error) {
	// Label definition, possibly followed by nothing.
	if i := strings.IndexByte(stmt, ':'); i >= 0 && !strings.ContainsAny(stmt[:i], " \t[") {
		name := strings.TrimSpace(stmt[:i])
		rest := strings.TrimSpace(stmt[i+1:])
		items = append(items, item{label: name, line: line})
		if rest != "" {
			return parseStmt(items, rest, line)
		}
		return items, nil
	}

	if strings.HasPrefix(stmt, ".") {
		it, err := parseDirective(stmt, line)
		if err != nil {
			return nil, err
		}
		return append(items, it), nil
	}

	it, err := parseInst(stmt, line)
	if err != nil {
		return nil, err
	}
	return append(items, it), nil
}

func parseDirective(stmt string, line int) (item, error) {
	fields := strings.SplitN(stmt, " ", 2)
	dir := fields[0]
	arg := ""
	if len(fields) == 2 {
		arg = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".byte":
		var data []byte
		for _, f := range strings.Split(arg, ",") {
			v, err := parseInt(strings.TrimSpace(f))
			if err != nil {
				return item{}, synErr(line, "bad .byte value %q", f)
			}
			data = append(data, byte(v))
		}
		return item{data: data, line: line}, nil
	case ".quad":
		var quads []quadRef
		for _, f := range strings.Split(arg, ",") {
			f = strings.TrimSpace(f)
			if v, err := parseInt(f); err == nil {
				quads = append(quads, quadRef{value: v})
			} else {
				quads = append(quads, quadRef{labelRef: f})
			}
		}
		return item{quads: quads, line: line}, nil
	case ".asciz":
		s, err := strconv.Unquote(arg)
		if err != nil {
			return item{}, synErr(line, "bad .asciz string %s", arg)
		}
		return item{data: append([]byte(s), 0), line: line}, nil
	case ".align":
		n, err := parseInt(arg)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return item{}, synErr(line, "bad .align value %q", arg)
		}
		return item{align: int(n), line: line}, nil
	}
	return item{}, synErr(line, "unknown directive %s", dir)
}

func parseInt(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, err
	}
	iv := int64(v)
	if neg {
		iv = -iv
	}
	return iv, nil
}

// operand is a parsed operand that may carry an unresolved label.
type operand struct {
	op       isa.Operand
	size     uint8 // size implied by the operand's syntax (0 if unknown)
	labelRef string
}

func parseOperand(s string, line int) (operand, error) {
	s = strings.TrimSpace(s)
	// Optional size keyword before a memory operand.
	var size uint8
	for kw, sz := range map[string]uint8{"byte": 1, "dword": 4, "qword": 8} {
		if strings.HasPrefix(s, kw+" ") || strings.HasPrefix(s, kw+"[") {
			size = sz
			s = strings.TrimSpace(strings.TrimPrefix(s, kw))
			break
		}
	}

	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return operand{}, synErr(line, "unterminated memory operand %q", s)
		}
		m, err := parseMem(s[1:len(s)-1], line)
		if err != nil {
			return operand{}, err
		}
		return operand{op: isa.Operand{Kind: isa.KindMem, Mem: m}, size: size}, nil
	}

	if r, ok := isa.RegByName(s); ok {
		switch {
		case strings.HasPrefix(s, "e") || strings.HasSuffix(s, "d") && strings.HasPrefix(s, "r") && len(s) > 2 && s[1] >= '0' && s[1] <= '9':
			size = 4
		case r.Name(1) == s:
			size = 1
		case r.Name(4) == s:
			size = 4
		default:
			size = 8
		}
		return operand{op: isa.RegOp(r), size: size}, nil
	}

	if v, err := parseInt(s); err == nil {
		return operand{op: isa.ImmOp(v)}, nil
	}

	// Otherwise a label reference, resolved during layout.
	if strings.ContainsAny(s, " \t,[]") {
		return operand{}, synErr(line, "bad operand %q", s)
	}
	return operand{op: isa.ImmOp(0), labelRef: s}, nil
}

// parseMem parses the inside of a bracketed memory operand:
// base [+ index[*scale]] [+/- disp] or rip+disp or a bare displacement.
func parseMem(s string, line int) (isa.Mem, error) {
	var m isa.Mem
	s = strings.ReplaceAll(s, " ", "")
	s = strings.ReplaceAll(s, "-", "+-")
	for _, part := range strings.Split(s, "+") {
		if part == "" {
			continue
		}
		if part == "rip" {
			m.RIPRel = true
			continue
		}
		if star := strings.IndexByte(part, '*'); star >= 0 {
			r, ok := isa.RegByName(part[:star])
			if !ok {
				return m, synErr(line, "bad index register %q", part[:star])
			}
			sc, err := parseInt(part[star+1:])
			if err != nil {
				return m, synErr(line, "bad scale %q", part[star+1:])
			}
			m.Index, m.HasIndex, m.Scale = r, true, uint8(sc)
			continue
		}
		if r, ok := isa.RegByName(part); ok {
			if m.HasBase {
				m.Index, m.HasIndex, m.Scale = r, true, 1
			} else {
				m.Base, m.HasBase = r, true
			}
			continue
		}
		v, err := parseInt(part)
		if err != nil {
			return m, synErr(line, "bad memory component %q", part)
		}
		m.Disp += int32(v)
	}
	return m, nil
}

var _mnemonics = map[string]isa.Op{
	"mov": isa.OpMov, "lea": isa.OpLea, "add": isa.OpAdd, "sub": isa.OpSub,
	"and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor, "cmp": isa.OpCmp,
	"test": isa.OpTest, "not": isa.OpNot, "neg": isa.OpNeg, "imul": isa.OpImul,
	"shl": isa.OpShl, "shr": isa.OpShr, "sar": isa.OpSar, "inc": isa.OpInc,
	"dec": isa.OpDec, "push": isa.OpPush, "pop": isa.OpPop, "ret": isa.OpRet,
	"jmp": isa.OpJmp, "call": isa.OpCall, "syscall": isa.OpSyscall,
	"nop": isa.OpNop, "leave": isa.OpLeave, "int3": isa.OpInt3, "hlt": isa.OpHlt,
	"xchg": isa.OpXchg, "movzx": isa.OpMovzx, "movsxd": isa.OpMovsxd,
	"cqo": isa.OpCqo, "idiv": isa.OpIdiv,
}

var _condByName = map[string]isa.Cond{
	"o": isa.CondO, "no": isa.CondNO, "b": isa.CondB, "c": isa.CondB,
	"ae": isa.CondAE, "nc": isa.CondAE, "e": isa.CondE, "z": isa.CondE,
	"ne": isa.CondNE, "nz": isa.CondNE, "be": isa.CondBE, "a": isa.CondA,
	"s": isa.CondS, "ns": isa.CondNS, "p": isa.CondP, "np": isa.CondNP,
	"l": isa.CondL, "ge": isa.CondGE, "le": isa.CondLE, "g": isa.CondG,
}

func parseInst(stmt string, line int) (item, error) {
	mn := stmt
	rest := ""
	if i := strings.IndexAny(stmt, " \t"); i >= 0 {
		mn, rest = stmt[:i], strings.TrimSpace(stmt[i+1:])
	}
	mn = strings.ToLower(mn)

	var inst isa.Inst
	switch {
	case mn == "movabs":
		inst.Op = isa.OpMov
	case strings.HasPrefix(mn, "j") && mn != "jmp":
		cc, ok := _condByName[mn[1:]]
		if !ok {
			return item{}, synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op, inst.Cond = isa.OpJcc, cc
	case strings.HasPrefix(mn, "set"):
		cc, ok := _condByName[mn[3:]]
		if !ok {
			return item{}, synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op, inst.Cond, inst.Size = isa.OpSetcc, cc, 1
	default:
		op, ok := _mnemonics[mn]
		if !ok {
			return item{}, synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op = op
	}

	it := item{hasInst: true, line: line}
	if rest != "" {
		ops := splitOperands(rest)
		if len(ops) > 2 {
			return item{}, synErr(line, "too many operands in %q", stmt)
		}
		a, err := parseOperand(ops[0], line)
		if err != nil {
			return item{}, err
		}
		inst.A = a.op
		it.labelRefA = a.labelRef
		sz := a.size
		if len(ops) == 2 {
			b, err := parseOperand(ops[1], line)
			if err != nil {
				return item{}, err
			}
			inst.B = b.op
			it.labelRefB = b.labelRef
			// For movzx/movsxd the destination size rules; otherwise take
			// any explicit size from either operand.
			if sz == 0 || (b.size != 0 && inst.Op != isa.OpMovzx && inst.Op != isa.OpMovsxd &&
				!(inst.Op >= isa.OpShl && inst.Op <= isa.OpSar) && b.size > sz && a.op.Kind == isa.KindMem) {
				if b.size != 0 && sz == 0 {
					sz = b.size
				}
			}
		}
		if inst.Size == 0 {
			inst.Size = sz
		}
	}
	if inst.Size == 0 {
		inst.Size = 8
	}
	it.inst = inst
	return it, nil
}

// splitOperands splits on commas not inside brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// layout performs iterative size resolution and final encoding.
func layout(items []item, base uint64, extern map[string]uint64) (*Result, error) {
	labels := make(map[string]uint64, len(extern))
	for name, addr := range extern {
		labels[name] = addr
	}
	// Iterate to a fixpoint: label values feed immediate widths which feed
	// instruction sizes which feed label values.
	sizes := make([]int, len(items))
	for iter := 0; iter < 8; iter++ {
		addr := base
		changed := false
		for i := range items {
			it := &items[i]
			if it.align > 0 {
				pad := int((uint64(it.align) - addr%uint64(it.align)) % uint64(it.align))
				if sizes[i] != pad {
					sizes[i], changed = pad, true
				}
				addr += uint64(pad)
				continue
			}
			if it.label != "" && !it.hasInst {
				if labels[it.label] != addr {
					labels[it.label] = addr
					changed = true
				}
				continue
			}
			var sz int
			switch {
			case it.hasInst:
				inst := it.inst
				resolveRefs(&inst, *it, labels)
				enc, err := isa.Encode(inst, addr)
				if err != nil {
					return nil, fmt.Errorf("asm: line %d: %w", it.line, err)
				}
				sz = len(enc)
			case it.quads != nil:
				sz = 8 * len(it.quads)
			default:
				sz = len(it.data)
			}
			if sizes[i] != sz {
				sizes[i], changed = sz, true
			}
			addr += uint64(sz)
		}
		if !changed {
			break
		}
		if iter == 7 {
			return nil, fmt.Errorf("asm: layout did not converge")
		}
	}

	// Final encode with resolved labels.
	var code []byte
	addr := base
	for i := range items {
		it := &items[i]
		switch {
		case it.align > 0:
			for j := 0; j < sizes[i]; j++ {
				code = append(code, 0x90)
			}
		case it.hasInst:
			inst := it.inst
			if err := resolveRefsStrict(&inst, *it, labels); err != nil {
				return nil, err
			}
			enc, err := isa.Encode(inst, addr)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %w", it.line, err)
			}
			code = append(code, enc...)
		case it.quads != nil:
			for _, q := range it.quads {
				v := q.value
				if q.labelRef != "" {
					lv, ok := labels[q.labelRef]
					if !ok {
						return nil, fmt.Errorf("asm: line %d: undefined label %q", it.line, q.labelRef)
					}
					v = int64(lv)
				}
				for b := 0; b < 8; b++ {
					code = append(code, byte(uint64(v)>>(8*b)))
				}
			}
		default:
			code = append(code, it.data...)
		}
		addr += uint64(sizes[i])
	}
	return &Result{Code: code, Labels: labels}, nil
}

func resolveRefs(inst *isa.Inst, it item, labels map[string]uint64) {
	if it.labelRefA != "" {
		inst.A.Imm = int64(labels[it.labelRefA])
	}
	if it.labelRefB != "" {
		inst.B.Imm = int64(labels[it.labelRefB])
	}
}

func resolveRefsStrict(inst *isa.Inst, it item, labels map[string]uint64) error {
	for _, ref := range []string{it.labelRefA, it.labelRefB} {
		if ref == "" {
			continue
		}
		if _, ok := labels[ref]; !ok {
			return fmt.Errorf("asm: line %d: undefined label %q", it.line, ref)
		}
	}
	resolveRefs(inst, it, labels)
	return nil
}
