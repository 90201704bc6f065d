package planner

import (
	"slices"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestPlanInvariants checks structural properties of every plan the search
// returns: consistent partial order, causal links respecting it, the goal
// step last, and no syscall gadgets mid-chain.
func TestPlanInvariants(t *testing.T) {
	pool := poolFrom(t, classicGadgets+`
    mov rax, rbx
    ret
    pop rbx
    ret
    pop rbp
    jmp rax
`)
	for _, goal := range Goals() {
		res := Search(pool, goal, Options{MaxPlans: 10})
		for _, p := range res.Plans {
			if !p.Complete() {
				t.Fatalf("incomplete plan returned")
			}
			lin := p.Linearize()
			if len(lin) != len(p.Steps) {
				t.Fatalf("linearization dropped steps: %d vs %d (cyclic order?)",
					len(lin), len(p.Steps))
			}
			pos := make(map[int]int, len(lin))
			for i, id := range lin {
				pos[id] = i
			}
			// Start first, goal last.
			if lin[0] != 0 {
				t.Errorf("start not first: %v", lin)
			}
			if lin[len(lin)-1] != p.GoalStep() {
				t.Errorf("goal not last: %v", lin)
			}
			// Order edges respected.
			for _, o := range p.Order {
				if pos[o[0]] >= pos[o[1]] {
					t.Errorf("order (%d,%d) violated in %v", o[0], o[1], lin)
				}
			}
			// Causal links: producer strictly before consumer, and no step
			// between them clobbers the linked register.
			for _, l := range p.Links {
				if pos[l.Producer] >= pos[l.Consumer] {
					t.Errorf("link %v out of order", l)
				}
				for i := pos[l.Producer] + 1; i < pos[l.Consumer]; i++ {
					g := p.step(lin[i]).G
					if g != nil && clobbers(g, l.Reg) {
						t.Errorf("link on %s broken by intermediate %s", l.Reg, g)
					}
				}
			}
			// No mid-chain syscall gadgets.
			chain := p.Chain()
			for i, g := range chain {
				if g.JmpType.String() == "Syscall" && i != len(chain)-1 {
					t.Errorf("syscall gadget mid-chain at %d", i)
				}
			}
		}
	}
}

func TestSearchDeterminism(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	sig := func() []string {
		res := Search(pool, ExecveGoal(), Options{MaxPlans: 5})
		var out []string
		for _, p := range res.Plans {
			out = append(out, p.Signature())
		}
		return out
	}
	a, b := sig(), sig()
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("plan %d differs between runs", i)
		}
	}
}

func TestLinearizeRespectsThreatOrdering(t *testing.T) {
	// Two rax setters (const 59 goal and arbitrary for JOP target): the
	// ordering must prevent the goal value from being clobbered.
	src := `
    pop rax
    ret
    pop rdi
    jmp rax
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	pool := poolFrom(t, src)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 3})
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range res.Plans {
		// Find the rax=59 link and ensure nothing clobbers rax after its
		// producer up to the goal.
		lin := p.Linearize()
		pos := map[int]int{}
		for i, id := range lin {
			pos[id] = i
		}
		for _, l := range p.Links {
			if l.Reg == isa.RAX && l.Consumer == p.GoalStep() && l.Spec.Kind == SpecConst {
				for i := pos[l.Producer] + 1; i < pos[l.Consumer]; i++ {
					if g := p.step(lin[i]).G; g != nil && clobbers(g, isa.RAX) {
						t.Errorf("rax=59 clobbered mid-chain in %s", p)
					}
				}
			}
		}
	}
}

func TestTimeoutReturnsGracefully(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	res := Search(pool, ExecveGoal(), Options{MaxPlans: 10000, MaxNodes: 1 << 30, Timeout: 1})
	// With a 1ns timeout the search must stop immediately and cleanly.
	if !res.TimedOut && res.Expanded > 512 {
		t.Errorf("timeout ignored: expanded=%d", res.Expanded)
	}
}

// TestKeyIgnoresOrdering pins the fact resolveThreats relies on when it
// keeps only the first consistent ordering of a successor: the search key
// covers gadget shapes and open requirements, not Order or reach, so every
// other ordering would be dropped as already visited. If ordering ever
// enters the key, resolveThreats has to keep the alternatives again.
func TestKeyIgnoresOrdering(t *testing.T) {
	pool := poolFrom(t, classicGadgets)
	var rax, rdi *gadget.Gadget
	for _, g := range pool.Gadgets {
		if g.JmpType == gadget.TypeSyscall {
			continue
		}
		if rax == nil && clobbers(g, isa.RAX) {
			rax = g
		} else if rdi == nil && clobbers(g, isa.RDI) {
			rdi = g
		}
	}
	if len(pool.Syscalls) == 0 || rax == nil || rdi == nil {
		t.Fatal("pool lacks the syscall, rax and rdi gadgets")
	}
	p := &Plan{
		Steps:    []Step{{ID: 0}, {ID: 1, G: pool.Syscalls[0]}, {ID: 2, G: rax}, {ID: 3, G: rdi}},
		Order:    [][2]int{{0, 1}, {0, 2}, {0, 3}, {2, 1}, {3, 1}},
		Open:     []Requirement{{Step: 1, Reg: isa.RSI, Spec: ConstSpec(0)}, {Step: 2, Reg: isa.RBX, Spec: ArbitrarySpec()}},
		goalStep: 1,
	}
	keys := newKeyInterner(pool)
	var w worker
	want := string(keys.key(p, &w))
	for _, e := range [][2]int{{2, 3}, {3, 2}} {
		q := p.Clone()
		q.ensureReach()
		before := append([]uint64(nil), q.reach...)
		if !q.addOrder(e[0], e[1]) || slices.Equal(before, q.reach) {
			t.Fatalf("edge %v did not change the ordering", e)
		}
		if got := string(keys.key(q, &w)); got != want {
			t.Errorf("adding order edge %v changed the search key: resolveThreats keeps only the first ordering, which is wrong once ordering is part of the key", e)
		}
	}
}

// TestResolveThreatsRestoresDeadBranch hand-builds a plan whose demotion
// branch dead-ends one threat deeper, so resolveThreats must roll that
// branch back before it tries promotion. The result must be exactly the
// ordering a clone-per-branch enumeration finds first.
//
// Steps: 1 consumer C, 2 producer P (clobbers rax, rbx), 3 A (clobbers rax),
// 4 X (clobbers rbx), 5 Y. Links: X->Y on rbx, and the new link P->C on
// rax. P threatens X->Y. Demoting P before X puts P < X < A < C, so A sits
// inside P->C for good, a dead end. Promoting P after Y leaves A free to be
// demoted before P.
func TestResolveThreatsRestoresDeadBranch(t *testing.T) {
	g := func(id int, clob ...isa.Reg) *gadget.Gadget { return &gadget.Gadget{ID: id, ClobRegs: clob} }
	steps := []Step{{ID: 0}, {ID: 1, G: g(1)}, {ID: 2, G: g(2, isa.RAX, isa.RBX)},
		{ID: 3, G: g(3, isa.RAX)}, {ID: 4, G: g(4, isa.RBX)}, {ID: 5, G: g(5)}}
	order := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {2, 1}, {4, 3}, {3, 1}, {4, 5}}
	links := []Link{
		{Producer: 4, Consumer: 5, Reg: isa.RBX, Spec: ArbitrarySpec()},
		{Producer: 2, Consumer: 1, Reg: isa.RAX, Spec: ConstSpec(59)},
	}
	p := RestorePlan(steps, slices.Clone(order), links, nil, nil, 1)
	if !resolveThreats(p, 2, 1) {
		t.Fatal("no consistent ordering found")
	}
	// Promotion of P after Y, then demotion of A before P.
	wantOrder := append(slices.Clone(order), [2]int{5, 2}, [2]int{3, 2})
	if !slices.Equal(p.Order, wantOrder) {
		t.Fatalf("order %v, want %v", p.Order, wantOrder)
	}
	want := RestorePlan(steps, wantOrder, links, nil, nil, 1)
	want.ensureReach()
	if !slices.Equal(p.reach, want.reach) {
		t.Errorf("reach %v, want the closure of the final order %v", p.reach, want.reach)
	}
}
