package planner

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// diversePool assembles a pool with several producer shapes per register so
// searches branch and the provider cache sees varied (gadget, spec) pairs.
const diverseGadgets = classicGadgets + `
    mov rax, rbx
    ret
    pop rbx
    ret
    lea rax, [rbx+1]
    ret
    mov rdi, rax
    ret
    xor rdx, rdx
    ret
    pop rcx
    ret
`

// TestProvidesCacheAgreement is the property check behind the provider
// cache: for random (gadget, register, spec) triples, the memoized
// providesFor must return exactly what a direct provides call computes —
// same result structure, same verdict.
func TestProvidesCacheAgreement(t *testing.T) {
	pool := poolFrom(t, diverseGadgets)
	cache := newProviderCache(pool, false)
	keys := newKeyInterner(pool)
	rng := rand.New(rand.NewSource(7))

	specs := []ValueSpec{
		ConstSpec(0), ConstSpec(59), ConstSpec(rng.Uint64()),
		PointerSpec([]byte("/bin/sh\x00")), PointerSpec([]byte{byte(rng.Intn(256))}),
		ArbitrarySpec(),
	}
	var tl tally
	checked := 0
	for trial := 0; trial < 500; trial++ {
		g := pool.Gadgets[rng.Intn(len(pool.Gadgets))]
		reg := isa.Reg(rng.Intn(int(isa.NumRegs)))
		spec := specs[rng.Intn(len(specs))]
		if spec.Kind == SpecConst && rng.Intn(2) == 0 {
			spec = ConstSpec(rng.Uint64() >> uint(rng.Intn(64)))
		}

		wantPR, wantOK := provides(pool.Builder, g, reg, spec)
		gotPR, gotOK := cache.providesFor(g, reg, spec, keys.specOf(spec), &tl)
		if wantOK != gotOK || !reflect.DeepEqual(wantPR, gotPR) {
			t.Fatalf("gadget %v reg %s spec %s: cached (%v, %v) != direct (%v, %v)",
				g, reg, spec, gotPR, gotOK, wantPR, wantOK)
		}

		wantReqs, wantU := stepEntryReqs(pool.Builder, g)
		gotReqs, gotU := cache.stepReqsFor(g, &tl)
		if wantU != gotU || !reflect.DeepEqual(wantReqs, gotReqs) {
			t.Fatalf("gadget %v: cached step reqs (%v, %v) != direct (%v, %v)",
				g, gotReqs, gotU, wantReqs, wantU)
		}
		checked++
	}
	if checked == 0 || tl.lookups == 0 {
		t.Fatal("property loop exercised nothing")
	}
	misses := cache.misses.Load()
	if misses == 0 || tl.lookups <= misses {
		t.Errorf("expected repeated lookups to hit the cache: lookups=%d misses=%d", tl.lookups, misses)
	}
}

// TestDisabledCacheAgreement pins the A/B contract of Options.DisableCache:
// the disabled cache routes straight to the underlying derivations.
func TestDisabledCacheAgreement(t *testing.T) {
	pool := poolFrom(t, diverseGadgets)
	cache := newProviderCache(pool, true)
	var tl tally
	for _, g := range pool.Gadgets {
		spec := ConstSpec(59)
		wantPR, wantOK := provides(pool.Builder, g, isa.RAX, spec)
		gotPR, gotOK := cache.providesFor(g, isa.RAX, spec, 0, &tl)
		if wantOK != gotOK || !reflect.DeepEqual(wantPR, gotPR) {
			t.Fatalf("gadget %v: disabled cache diverged", g)
		}
	}
	if tl.lookups != 0 || cache.misses.Load() != 0 {
		t.Errorf("disabled cache counted traffic: lookups=%d misses=%d", tl.lookups, cache.misses.Load())
	}
}

// BenchmarkSearch measures full searches — seeding, frontier batches,
// expansion, dedup — without payload validation: a deep search over the
// diverse hand-built pool with the caches on and off, and the execve search
// on a real rv64c LLVM-Obf pool, the kind that dominates served planning.
func BenchmarkSearch(b *testing.B) {
	r, err := buildPool(diverseGadgets)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"seedpath", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := Options{MaxPlans: 1 << 20, Candidates: 32, Parallelism: 1, DisableCache: cfg.disable}
				Search(r, ExecveGoal(), opts)
			}
		})
	}
	b.Run("rv64c-llvm-queens", func(b *testing.B) {
		prog, _ := benchprog.ByName("queens")
		bin, err := benchprog.BuildISA(prog, obfuscate.LLVMObf(), 0, "rv64c")
		if err != nil {
			b.Fatal(err)
		}
		pool, _ := subsume.Minimize(gadget.Extract(bin, gadget.Options{ISA: bin.ISA}), subsume.Options{})
		goal := GoalsForISA(bin.ISA)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Search(pool, goal, Options{Parallelism: 1})
		}
	})
}
