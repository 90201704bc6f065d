package planner

import (
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// regReq is a requirement on a register at a gadget's entry.
type regReq struct {
	reg  isa.Reg
	spec ValueSpec
}

// varClass partitions the variables of an expression.
type varClass struct {
	inputs []string  // stack-input variables (attacker payload cells)
	regs   []isa.Reg // initial-register variables
	other  bool      // flags, opaque vars: not plannable
}

func classifyVars(nodes ...*expr.Node) varClass {
	var vc varClass
	for _, name := range expr.Vars(nodes...) {
		if symex.IsAttackerVar(name) {
			vc.inputs = append(vc.inputs, name)
			continue
		}
		if symex.IsSPVar(name) {
			// The stack pointer is managed by the chain layout itself and
			// can never be a planning requirement (any backend).
			vc.other = true
			continue
		}
		if r, ok := symex.IsRegVar(name); ok {
			vc.regs = append(vc.regs, r)
			continue
		}
		vc.other = true
	}
	return vc
}

// invertForm recognizes invertible single-variable expressions:
// v, v+c, v^c, ~v, -v. It returns the variable name and a concrete inverse
// for constant targets.
func invertForm(e *expr.Node) (varName string, inverse func(uint64) uint64, ok bool) {
	id := func(x uint64) uint64 { return x }
	switch e.Kind {
	case expr.KindVar:
		return e.Name, id, true
	case expr.KindAdd:
		if e.Args[0].Kind == expr.KindVar && e.Args[1].IsConst() {
			c := e.Args[1].Val
			return e.Args[0].Name, func(x uint64) uint64 { return x - c }, true
		}
	case expr.KindXor:
		if e.Args[0].Kind == expr.KindVar && e.Args[1].IsConst() {
			c := e.Args[1].Val
			return e.Args[0].Name, func(x uint64) uint64 { return x ^ c }, true
		}
	case expr.KindNot:
		if e.Args[0].Kind == expr.KindVar {
			return e.Args[0].Name, func(x uint64) uint64 { return ^x }, true
		}
	case expr.KindNeg:
		if e.Args[0].Kind == expr.KindVar {
			return e.Args[0].Name, func(x uint64) uint64 { return -x }, true
		}
	}
	return "", nil, false
}

// provideResult describes how a gadget's exit can satisfy reg=spec.
type provideResult struct {
	// entryReqs are requirements pushed onto the gadget's entry state.
	entryReqs []regReq
	// demands are slot equations to discharge at concretization.
	demands []SlotDemand
}

// provides analyzes whether gadget g's exit state can satisfy reg=spec,
// and at what cost. The Step field of returned demands is unfilled.
func provides(b *expr.Builder, g *gadget.Gadget, reg isa.Reg, spec ValueSpec) (provideResult, bool) {
	if int(reg) >= len(g.Effect.Regs) {
		return provideResult{}, false // register unknown to this backend
	}
	e := g.Effect.Regs[reg]
	if e.Kind == expr.KindVar {
		// Unchanged register (its exit value is its own entry variable, on
		// any backend): not a producer.
		if src, ok := symex.IsRegVar(e.Name); ok && src == reg {
			return provideResult{}, false
		}
	}
	vc := classifyVars(e)
	if vc.other {
		return provideResult{}, false
	}

	// Constant exit value.
	if e.IsConst() {
		if spec.Kind == SpecConst && spec.Value == e.Val {
			return provideResult{}, true
		}
		return provideResult{}, false
	}

	// Entirely payload-determined.
	if len(vc.regs) == 0 {
		switch spec.Kind {
		case SpecArbitrary:
			// Must be invertible so any target is reachable.
			if name, _, ok := invertForm(e); ok && symex.IsAttackerVar(name) {
				return provideResult{demands: []SlotDemand{{Expr: e, Spec: spec}}}, true
			}
			return provideResult{}, false
		default:
			// Constant or pointer target: defer Eq(e, target) to the solver.
			return provideResult{demands: []SlotDemand{{Expr: e, Spec: spec}}}, true
		}
	}

	// Single-register invertible transform: regress the spec upstream.
	if len(vc.regs) == 1 && len(vc.inputs) == 0 {
		name, inverse, ok := invertForm(e)
		if !ok {
			return provideResult{}, false
		}
		src, ok := symex.IsRegVar(name)
		if !ok || symex.IsSPVar(name) {
			return provideResult{}, false
		}
		switch spec.Kind {
		case SpecConst:
			return provideResult{entryReqs: []regReq{{src, ConstSpec(inverse(spec.Value))}}}, true
		case SpecArbitrary:
			return provideResult{entryReqs: []regReq{{src, ArbitrarySpec()}}}, true
		case SpecPointer:
			// Only identity copies can carry a pointer whose concrete value
			// is unknown until concretization.
			if e.Kind == expr.KindVar {
				return provideResult{entryReqs: []regReq{{src, spec}}}, true
			}
			return provideResult{}, false
		}
	}

	// Mixed register/input expressions: out of the planner's fragment.
	return provideResult{}, false
}

// stepEntryReqs computes the requirements a gadget instance imposes by
// itself: pre-conditions from conditional jumps passed through, and control
// of the jump-target register for indirect-ending gadgets. The bool reports
// whether the gadget is usable as a plan step at all.
func stepEntryReqs(b *expr.Builder, g *gadget.Gadget) ([]regReq, bool) {
	var reqs []regReq
	seen := make(map[isa.Reg]bool)

	// Reads below the gadget's entry rsp hit victim stack the payload does
	// not cover; such gadgets cannot be driven.
	for off := range g.Effect.Inputs {
		if off < 0 {
			return nil, false
		}
	}

	// control requires every entry register n mentions to be
	// attacker-settable, reporting false if n depends on anything else
	// (unmodeled flag bits, opaque variables).
	control := func(n *expr.Node) bool {
		vc := classifyVars(n)
		for _, r := range vc.regs {
			if !seen[r] {
				seen[r] = true
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		}
		return !vc.other
	}
	// Conditions passed through are re-instantiated and solved during
	// concretization. Controlled-memory dereferences have their address
	// pinned to scratch payload memory at concretization.
	for _, cond := range g.Effect.Conds {
		if !control(cond) {
			return nil, false
		}
	}
	for _, acc := range g.Effect.MemReads {
		if !control(acc.Addr) {
			return nil, false
		}
	}
	for _, acc := range g.Effect.MemWrites {
		if !control(acc.Addr) {
			return nil, false
		}
	}

	switch g.Effect.End {
	case symex.EndJmpInd, symex.EndCallInd:
		rip := g.Effect.NextRIP
		vc := classifyVars(rip)
		if vc.other {
			return nil, false
		}
		switch {
		case len(vc.regs) == 0:
			// Payload-determined target: solved at concretization.
		case len(vc.regs) == 1 && len(vc.inputs) == 0:
			if _, _, ok := invertForm(rip); !ok {
				return nil, false
			}
			r := vc.regs[0]
			if !seen[r] {
				reqs = append(reqs, regReq{r, ArbitrarySpec()})
			}
		default:
			return nil, false
		}
	}
	return reqs, true
}

// clobbers reports whether step s (a gadget) overwrites reg.
func clobbers(g *gadget.Gadget, reg isa.Reg) bool {
	for _, r := range g.ClobRegs {
		if r == reg {
			return true
		}
	}
	return false
}
