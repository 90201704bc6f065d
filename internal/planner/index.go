package planner

import (
	"encoding/binary"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// candidateIndex holds per-register producer candidates, filtered and
// statically ranked once at search start instead of per expand() call.
// The diversity tiebreak (prefer gadgets not yet appearing in accepted
// plans) is applied as a cheap stable re-rank on top of the static order
// and cached until the next plan is accepted. All methods run on the
// search coordinator only, so no locking is needed.
type candidateIndex struct {
	base     map[isa.Reg][]*gadget.Gadget
	reranked map[isa.Reg][]*gadget.Gadget
	// anyUses stays false until the first plan is accepted; until then the
	// static order IS the diversity order and no re-rank is done at all.
	anyUses bool
	// disabled (Options.DisableCache) re-ranks from scratch on every call,
	// reproducing the seed's per-expansion sorting cost for A/B benchmarks.
	// The resulting order — and hence the search — is identical either way.
	disabled bool
}

func newCandidateIndex(pool *gadget.Pool, disabled bool) *candidateIndex {
	idx := &candidateIndex{
		base:     make(map[isa.Reg][]*gadget.Gadget, len(pool.ByReg)),
		reranked: make(map[isa.Reg][]*gadget.Gadget),
		disabled: disabled,
	}
	for r, gs := range pool.ByReg {
		cands := make([]*gadget.Gadget, 0, len(gs))
		for _, g := range gs {
			// Syscall-terminated gadgets cannot continue a chain; they only
			// anchor plans as the goal step. Negative-delta gadgets sink the
			// chain cursor below the payload, making every later gadget read
			// victim stack.
			if g.Effect.End != symex.EndSyscall && g.Effect.StackDelta >= 0 {
				cands = append(cands, g)
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return staticCandLess(cands[i], cands[j]) })
		idx.base[r] = cands
	}
	return idx
}

// staticCandLess is the uses-independent planning-cost order: fewer
// pre-conditions, fewer clobbered registers (fewer threats), shorter.
func staticCandLess(a, b *gadget.Gadget) bool {
	if len(a.Effect.Conds) != len(b.Effect.Conds) {
		return len(a.Effect.Conds) < len(b.Effect.Conds)
	}
	if len(a.ClobRegs) != len(b.ClobRegs) {
		return len(a.ClobRegs) < len(b.ClobRegs)
	}
	if a.NumInsts() != b.NumInsts() {
		return a.NumInsts() < b.NumInsts()
	}
	return a.Location < b.Location
}

// bumpUses invalidates the cached re-ranks after the accepted-plan set (and
// hence the uses counts) changed.
func (idx *candidateIndex) bumpUses() {
	idx.anyUses = true
	clear(idx.reranked)
}

// candidatesFor returns the ranked producer candidates for reg under the
// current uses counts: least-used first (diversity pressure), static
// planning-cost order within each usage class.
func (idx *candidateIndex) candidatesFor(reg isa.Reg, uses map[int]int) []*gadget.Gadget {
	if idx.disabled {
		// Seed cost model: a full sort per call. Stable-sorting the
		// statically-ordered base with the full comparator yields exactly
		// the order the cached path produces.
		base := idx.base[reg]
		c := append(make([]*gadget.Gadget, 0, len(base)), base...)
		sort.SliceStable(c, func(i, j int) bool {
			if uses[c[i].ID] != uses[c[j].ID] {
				return uses[c[i].ID] < uses[c[j].ID] // diversity first
			}
			return staticCandLess(c[i], c[j])
		})
		return c
	}
	if !idx.anyUses {
		return idx.base[reg]
	}
	if c, ok := idx.reranked[reg]; ok {
		return c
	}
	base := idx.base[reg]
	c := append(make([]*gadget.Gadget, 0, len(base)), base...)
	sort.SliceStable(c, func(i, j int) bool { return uses[c[i].ID] < uses[c[j].ID] })
	idx.reranked[reg] = c
	return c
}

// keyInterner builds the search's dedup keys from interned IDs instead of
// formatted strings: gadget shapes and value specs are mapped to dense
// uint32s, and a plan's key is the varint encoding of its sorted shape
// multiset plus its sorted packed open requirements.
//
// Expansion workers build keys concurrently without a lock on the hot path:
// every pool gadget's shape is interned up front, and value specs, which
// the search discovers as it goes, live in a copy-on-write table that only
// a new spec locks. Spec IDs thus depend on which worker meets a spec
// first, so key bytes may differ between runs, but key equality does not.
type keyInterner struct {
	shapeByGID []uint32 // gadget ID -> shape ID
	specMu     sync.Mutex
	specIDs    atomic.Pointer[map[specKey]uint32]
}

func newKeyInterner(pool *gadget.Pool) *keyInterner {
	maxID := 0
	for _, g := range pool.Gadgets {
		if g.ID > maxID {
			maxID = g.ID
		}
	}
	ki := &keyInterner{shapeByGID: make([]uint32, maxID+1)}
	shapeIDs := make(map[string]uint32)
	for _, g := range pool.Gadgets {
		s := gadgetShape(g)
		if _, ok := shapeIDs[s]; !ok {
			shapeIDs[s] = uint32(len(shapeIDs))
		}
		ki.shapeByGID[g.ID] = shapeIDs[s]
	}
	ki.specIDs.Store(&map[specKey]uint32{})
	return ki
}

func (ki *keyInterner) specOf(s ValueSpec) uint32 {
	k := canonSpecKey(s)
	if id, ok := (*ki.specIDs.Load())[k]; ok {
		return id
	}
	ki.specMu.Lock()
	defer ki.specMu.Unlock()
	next := maps.Clone(*ki.specIDs.Load())
	if _, ok := next[k]; !ok {
		next[k] = uint32(len(next))
		ki.specIDs.Store(&next)
	}
	return next[k]
}

// key returns the dedup key identifying a search state: the multiset of
// gadget shapes plus the set of open requirements. Complete plans reduce to
// the shape multiset, i.e. the interned form of Plan.Signature. The key is
// built in w's buffers and valid until their next use.
func (ki *keyInterner) key(p *Plan, w *worker) []byte {
	rs := w.rs[:0]
	for i := range p.Steps {
		if g := p.Steps[i].G; g != nil {
			rs = append(rs, uint64(ki.shapeByGID[g.ID]))
		}
	}
	nShapes := len(rs)
	slices.Sort(rs[:nShapes])
	for _, r := range p.Open {
		shape := uint64(0) // the Start step
		if g := p.step(r.Step).G; g != nil {
			shape = uint64(ki.shapeByGID[g.ID]) + 1
		}
		// shape(24b) | reg(8b) | spec(32b): pools have far fewer than 2^24
		// distinct shapes and a search sees far fewer than 2^32 specs.
		rs = append(rs, shape<<40|(uint64(r.Reg)&0xFF)<<32|uint64(ki.specOf(r.Spec)))
	}
	reqs := rs[nShapes:]
	slices.Sort(reqs)
	buf := binary.AppendUvarint(w.buf[:0], uint64(nShapes))
	for _, v := range rs {
		buf = binary.AppendUvarint(buf, v)
	}
	w.rs, w.buf = rs, buf
	return buf
}
