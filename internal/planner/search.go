package planner

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// defaultBatchSize is how many frontier plans one batch pops. It is a fixed
// constant — deliberately NOT derived from Parallelism — because the batch
// boundary is what shapes the search order; workers only split a batch.
const defaultBatchSize = 16

// Options tune the plan search.
type Options struct {
	// MaxPlans stops the search after this many validated plans. Default 8.
	MaxPlans int
	// MaxNodes bounds search-node expansions. Default 30000.
	MaxNodes int
	// MaxSteps bounds gadget instances per plan (chain length). Default 10,
	// clamped to 60 (plan orderings are tracked in single-word bitsets).
	MaxSteps int
	// Candidates caps producer candidates tried per open requirement.
	// Default 8.
	Candidates int
	// Timeout bounds wall-clock search time. Default 30s.
	Timeout time.Duration
	// Validate, if set, is called on each complete plan; only plans it
	// accepts are returned (Algorithm 1's UNSAT filtering, implemented by
	// payload concretization in the core pipeline). It always runs on the
	// coordinator goroutine, in deterministic batch order.
	Validate func(*Plan) bool
	// Trace, if set, observes every expanded plan (diagnostics).
	Trace func(*Plan)
	// Parallelism is the number of frontier-expansion workers. 0 = all
	// cores, 1 = single-threaded. Results are byte-identical at every
	// setting: batches are popped, validated, and merged in deterministic
	// order, and BatchSize — not the worker count — shapes the search.
	Parallelism int
	// BatchSize overrides how many plans each frontier batch pops
	// (default defaultBatchSize). Changing it changes the search order;
	// changing Parallelism never does.
	BatchSize int
	// DisableCache turns off the per-search memoization layers — the
	// provider cache and the candidate-ranking cache — restoring the
	// seed's per-expansion derivation costs (A/B benchmarking). Plans are
	// identical either way; only the speed differs.
	DisableCache bool
}

// Fingerprint renders the options' semantic fields canonically (defaults
// applied) for content-addressed artifact keys. Parallelism is excluded —
// plans are identical at every worker count — and so are the Validate and
// Trace closures: callers caching search results must key whatever state
// those closures observe themselves (core's plan stage keys the payload
// parameters its validator is built from). BatchSize shapes the search
// order and DisableCache changes the reported counters, so both are
// included.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	return fmt.Sprintf("plans=%d,nodes=%d,steps=%d,cands=%d,timeout=%s,batch=%d,cache=%t",
		o.MaxPlans, o.MaxNodes, o.MaxSteps, o.Candidates, o.Timeout, o.BatchSize, !o.DisableCache)
}

func (o Options) withDefaults() Options {
	if o.MaxPlans == 0 {
		o.MaxPlans = 8
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 30000
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 10
	}
	if o.MaxSteps > maxOrderSteps-4 {
		o.MaxSteps = maxOrderSteps - 4
	}
	if o.Candidates == 0 {
		o.Candidates = 8
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	return o
}

// Result reports the search outcome.
type Result struct {
	Plans     []*Plan
	Expanded  int
	Generated int
	Rejected  int // complete plans rejected by validation
	TimedOut  bool
	// TruncatedSeeds counts syscall anchors dropped by the seed cap — no
	// silent truncation.
	TruncatedSeeds int
	// Batches counts deterministic frontier batches processed.
	Batches int
	// CacheHits/CacheMisses report provider-cache effectiveness (both zero
	// when DisableCache is set).
	CacheHits, CacheMisses int64
}

// StatsLine renders the search counters for stats output, in the style of
// subsume.Stats' triage line.
func (r *Result) StatsLine() string {
	s := fmt.Sprintf("expanded=%d generated=%d batches=%d cache=%d/%d hit/miss",
		r.Expanded, r.Generated, r.Batches, r.CacheHits, r.CacheMisses)
	if r.TruncatedSeeds > 0 {
		s += fmt.Sprintf(" truncatedSeeds=%d", r.TruncatedSeeds)
	}
	if r.TimedOut {
		s += " timeout"
	}
	return s
}

// planHeap orders plans by the paper's heuristics: fewest open
// pre-conditions, then fewest deferred constraints, then fewest steps.
type planHeap []*Plan

func (h planHeap) Len() int { return len(h) }
func (h planHeap) Less(i, j int) bool {
	if len(h[i].Open) != len(h[j].Open) {
		return len(h[i].Open) < len(h[j].Open)
	}
	if len(h[i].Demands) != len(h[j].Demands) {
		return len(h[i].Demands) < len(h[j].Demands)
	}
	return len(h[i].Steps) < len(h[j].Steps)
}
func (h planHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *planHeap) Push(x any)   { *h = append(*h, x.(*Plan)) }
func (h *planHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// searchCtx bundles the per-search read-mostly machinery shared by the
// coordinator and its expansion workers.
type searchCtx struct {
	pool  *gadget.Pool
	opts  Options
	cache *providerCache
	idx   *candidateIndex
	keys  *keyInterner
}

// Search runs backward partial-order planning over the pool toward the
// goal, returning up to MaxPlans distinct complete plans.
//
// The frontier is processed in deterministic batches: pop the K best plans
// in heap order, handle complete ones (dedup, validate, accept) serially in
// that order, expand the incomplete ones in parallel workers, then merge
// the successors back into the heap in pop order. Because batch boundaries,
// validation order, and merge order depend only on BatchSize — never on
// Parallelism — the accepted plans, counters, and diversity ranking are
// byte-identical at any worker count.
func Search(pool *gadget.Pool, goal Goal, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{}
	deadline := time.Now().Add(opts.Timeout)

	sc := &searchCtx{
		pool:  pool,
		opts:  opts,
		cache: newProviderCache(pool, opts.DisableCache),
		idx:   newCandidateIndex(pool, opts.DisableCache),
		keys:  newKeyInterner(pool),
	}

	var total tally
	var q planHeap
	seedPlans, truncated := seeds(sc, goal, &total)
	res.TruncatedSeeds = truncated
	for _, p := range seedPlans {
		heap.Push(&q, p)
	}

	found := make(map[string]bool)
	// Partial-plan dedup: structurally identical search states (same gadget
	// shapes, same open requirements) are explored once.
	visited := make(map[string]bool)
	// Diversity pressure: gadgets already appearing in accepted plans are
	// deprioritized as producers, pushing the search toward structurally
	// different chains (the paper: "Gadget-Planner does not stop when
	// finding one gadget chain; it keeps searching for more diverse gadget
	// chains").
	uses := make(map[int]int)

	type job struct {
		p      *Plan
		cands  []*gadget.Gadget
		specID uint32 // interned form of p.Open[0].Spec
		succs  []keyedPlan
		t      tally
	}
	var jobs []job
	// One scratch area per expansion worker; the coordinator borrows the
	// first for its own keys between phases.
	ws := make([]worker, opts.Parallelism)

	done := false
	for q.Len() > 0 && res.Expanded < opts.MaxNodes && !done {
		if time.Now().After(deadline) {
			res.TimedOut = true
			break
		}
		k := opts.BatchSize
		if k > q.Len() {
			k = q.Len()
		}
		if rem := opts.MaxNodes - res.Expanded; k > rem {
			k = rem
		}
		res.Batches++

		// Phase 1 (serial): pop the batch in heap order. Complete plans are
		// deduped, validated, and accepted right here, in pop order, so the
		// uses-based diversity ranking the rest of the batch expands under
		// is reproducible.
		jobs = jobs[:0]
		usesChanged := false
		for i := 0; i < k; i++ {
			p := heap.Pop(&q).(*Plan)
			res.Expanded++
			if opts.Trace != nil {
				opts.Trace(p)
			}
			if p.Complete() {
				sig := sc.keys.key(p, &ws[0])
				if found[string(sig)] {
					continue
				}
				if opts.Validate != nil && !opts.Validate(p) {
					res.Rejected++
					continue
				}
				found[string(sig)] = true
				res.Plans = append(res.Plans, p)
				for _, g := range p.Chain() {
					uses[g.ID]++
				}
				usesChanged = true
				if len(res.Plans) >= opts.MaxPlans {
					done = true
					break
				}
				continue
			}
			jobs = append(jobs, job{p: p})
		}
		if done || len(jobs) == 0 {
			continue
		}
		if usesChanged {
			sc.idx.bumpUses()
		}
		// Candidate lists and spec IDs are resolved serially (the index
		// caches its diversity re-rank per register, the interner owns the
		// spec table); workers receive ready slices and dense keys.
		for i := range jobs {
			jobs[i].cands = nil
			jobs[i].specID = sc.keys.specOf(jobs[i].p.Open[0].Spec)
			if jobs[i].p.NumGadgets() < opts.MaxSteps {
				jobs[i].cands = sc.idx.candidatesFor(jobs[i].p.Open[0].Reg, uses)
			}
		}

		// Phase 2 (parallel): expand each job in place. Workers only read
		// visited, which phase 3 writes after runJobs has returned.
		runJobs(opts.Parallelism, len(jobs), func(w, i int) {
			j := &jobs[i]
			j.succs = expand(sc, j.p, j.cands, j.specID, visited, &ws[w], &j.t)
		})

		// Phase 3 (serial): merge successors in batch order. Successors of
		// one batch can share a key, so visited is checked again.
		for i := range jobs {
			total.lookups += jobs[i].t.lookups
			for _, s := range jobs[i].succs {
				if visited[s.key] {
					continue
				}
				visited[s.key] = true
				res.Generated++
				heap.Push(&q, s.p)
			}
		}
	}
	if !opts.DisableCache {
		res.CacheMisses = sc.cache.misses.Load()
		res.CacheHits = total.lookups - res.CacheMisses
	}
	return res
}

// runJobs executes fn(w, i) for i in 0..n-1 on up to `workers` goroutines,
// w being the index of the goroutine running the call. With one worker (or
// one job) it degenerates to a plain loop.
func runJobs(workers, n int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// seeds builds one initial plan per usable syscall gadget (the backward
// search starts from the attack's final state). The second result counts
// anchors dropped by the seed cap.
func seeds(sc *searchCtx, goal Goal, t *tally) ([]*Plan, int) {
	pool := sc.pool
	// Deterministic goal-register order.
	regs := make([]isa.Reg, 0, len(goal.Regs))
	for r := range goal.Regs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	// Prefer simple syscall gadgets.
	anchors := append([]*gadget.Gadget(nil), pool.Syscalls...)
	sort.Slice(anchors, func(i, j int) bool {
		if len(anchors[i].Effect.Conds) != len(anchors[j].Effect.Conds) {
			return len(anchors[i].Effect.Conds) < len(anchors[j].Effect.Conds)
		}
		if anchors[i].NumInsts() != anchors[j].NumInsts() {
			return anchors[i].NumInsts() < anchors[j].NumInsts()
		}
		return anchors[i].Location < anchors[j].Location
	})
	// Seed every anchor: the most useful ones (libc-style syscall wrappers
	// that set argument registers internally) are long and would be crowded
	// out by any shortest-first cap. Unworkable seeds die cheaply when a
	// requirement has no producers.
	truncated := 0
	if len(anchors) > 64 {
		truncated = len(anchors) - 64
		anchors = anchors[:64]
	}

	var out []*Plan
	for _, sg := range anchors {
		selfReqs, usable := sc.cache.stepReqsFor(sg, t)
		if !usable {
			continue
		}
		p := &Plan{
			Steps:    []Step{{ID: 0}, {ID: 1, G: sg}},
			goalStep: 1,
		}
		p.addOrder(0, 1)
		ok := true
		for _, r := range regs {
			spec := goal.Regs[r]
			if int(r) >= len(sg.Effect.Regs) {
				ok = false // register unknown to this backend
				break
			}
			e := sg.Effect.Regs[r]
			if e == pool.Builder.Var(symex.RegVarNameOn(pool.Backend(), r), 64) {
				// Unchanged by the syscall gadget: require at its entry.
				p.Open = append(p.Open, Requirement{Step: 1, Reg: r, Spec: spec})
				continue
			}
			pr, provided := sc.cache.providesFor(sg, r, spec, sc.keys.specOf(spec), t)
			if !provided {
				ok = false
				break
			}
			for _, rq := range pr.entryReqs {
				p.Open = append(p.Open, Requirement{Step: 1, Reg: rq.reg, Spec: rq.spec})
			}
			for _, d := range pr.demands {
				d.Step = 1
				p.addDemand(d)
			}
		}
		if !ok {
			continue
		}
		for _, rq := range selfReqs {
			p.Open = append(p.Open, Requirement{Step: 1, Reg: rq.reg, Spec: rq.spec})
		}
		out = append(out, p)
	}
	return out, truncated
}

// worker is one expansion goroutine's scratch: the successor under
// construction and the buffers keys are built in.
type worker struct {
	succ Plan
	rs   []uint64
	buf  []byte
}

// keyedPlan is a new successor with the key its worker computed for it.
type keyedPlan struct {
	p   *Plan
	key string
}

// expand generates successor plans for the first open requirement and
// returns those whose key is not in visited. Each successor is built in the
// worker's scratch plan and copied out only if its key is new. It is called
// from expansion workers: everything it writes is owned by the task (p, t)
// or the worker (w), and everything else it touches is safe for concurrent
// reads (the pool, the candidate slice, the provider cache, the key
// interner, visited).
func expand(sc *searchCtx, p *Plan, cands []*gadget.Gadget, specID uint32, visited map[string]bool, w *worker, t *tally) []keyedPlan {
	req := p.Open[0]
	rest := p.Open[1:]
	succ := &w.succ
	var out []keyedPlan
	keep := func() {
		if key := sc.keys.key(succ, w); !visited[string(key)] {
			out = append(out, keyedPlan{succ.Clone(), string(key)})
		}
	}

	// Candidate 1: reuse an existing step that already supplies this value.
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.G == nil || s.ID == req.Step {
			continue
		}
		if s.ID != p.goalStep && (s.G.Effect.End == symex.EndSyscall || s.G.Effect.StackDelta < 0) {
			continue
		}
		if p.orderedBefore(req.Step, s.ID) {
			continue // cannot be ordered before the consumer
		}
		var pr provideResult
		if sp := linkedSpec(p, s.ID, req.Reg); sp != nil {
			if !equalSpec(*sp, req.Spec) {
				continue // the step is committed to a different value
			}
		} else {
			var ok bool
			if pr, ok = sc.cache.providesFor(s.G, req.Reg, req.Spec, specID, t); !ok {
				continue
			}
		}
		p.cloneInto(succ, rest)
		if finishLink(succ, req, s.ID, pr) {
			keep()
		}
	}

	// Candidate 2: instantiate a new gadget step.
	taken := 0
	for _, g := range cands {
		if taken >= sc.opts.Candidates {
			break
		}
		pr, ok := sc.cache.providesFor(g, req.Reg, req.Spec, specID, t)
		if !ok {
			continue
		}
		selfReqs, usable := sc.cache.stepReqsFor(g, t)
		if !usable {
			continue
		}
		p.cloneInto(succ, rest)
		id := len(succ.Steps)
		succ.Steps = append(succ.Steps, Step{ID: id, G: g})
		succ.addOrder(0, id)
		// The syscall fires last; every other gadget precedes it.
		if id != succ.goalStep {
			succ.addOrder(id, succ.goalStep)
		}
		for _, rq := range selfReqs {
			succ.Open = append(succ.Open, Requirement{Step: id, Reg: rq.reg, Spec: rq.spec})
		}
		if finishLink(succ, req, id, pr) {
			keep()
			taken++
		}
	}
	return out
}

// linkedSpec returns the spec a step is already committed to supply for reg.
func linkedSpec(p *Plan, step int, reg isa.Reg) *ValueSpec {
	for i := range p.Links {
		if p.Links[i].Producer == step && p.Links[i].Reg == reg {
			return &p.Links[i].Spec
		}
	}
	return nil
}

// finishLink installs the causal link and the producer's own new
// requirements and demands, then resolves threats, reporting whether the
// plan could be made consistent.
func finishLink(succ *Plan, req Requirement, producer int, pr provideResult) bool {
	for _, rq := range pr.entryReqs {
		succ.Open = append(succ.Open, Requirement{Step: producer, Reg: rq.reg, Spec: rq.spec})
	}
	for _, d := range pr.demands {
		d.Step = producer
		succ.addDemand(d)
	}
	if !succ.addOrder(producer, req.Step) {
		return false
	}
	link := Link{Producer: producer, Consumer: req.Step, Reg: req.Reg, Spec: req.Spec}
	succ.Links = append(succ.Links, link)
	return resolveThreats(succ, producer, len(succ.Links)-1)
}

// firstUnresolvedThreat finds a step that clobbers some link's register and
// could be ordered between that link's producer and consumer.
//
// Every frontier plan is threat-free (seeds carry no links, and expanded
// plans come out of resolveThreats clean), and adding ordering constraints
// can only resolve threats, never create them — so after finishLink the
// only pairs that can be threatened involve the link's producer step or the
// newly installed link at index newLink. The scan visits exactly those
// pairs, in the same step-major, link-minor order a full scan would use, so
// it returns the same threat a full scan would find first.
func firstUnresolvedThreat(p *Plan, producer, newLink int) (threat int, link Link, found bool) {
	threatened := func(t *Step, l Link) bool {
		if t.ID == l.Producer || t.ID == l.Consumer {
			return false
		}
		if !clobbers(t.G, l.Reg) {
			return false
		}
		if p.orderedBefore(t.ID, l.Producer) || p.orderedBefore(l.Consumer, t.ID) {
			return false // already safe
		}
		return true
	}
	for i := range p.Steps {
		t := &p.Steps[i]
		if t.G == nil {
			continue
		}
		if t.ID == producer {
			for _, l := range p.Links {
				if threatened(t, l) {
					return t.ID, l, true
				}
			}
		} else if l := p.Links[newLink]; threatened(t, l) {
			return t.ID, l, true
		}
	}
	return 0, Link{}, false
}

// resolveThreats orders p so that no step threatens a causal link, in
// place: depth-first over the threats, each resolved by demotion (threat
// before producer) or else promotion (threat after consumer), a dead branch
// rolled back before the next is tried. It keeps the first consistent
// ordering and reports whether there was one. Only the first is needed:
// alternative orderings give plans with the same search key (which covers
// shapes and open requirements, not Order), and the search explores one
// plan per key. producer and newLink scope the threat scan to the pairs the
// enclosing finishLink could have endangered (see firstUnresolvedThreat).
func resolveThreats(p *Plan, producer, newLink int) bool {
	t, l, found := firstUnresolvedThreat(p, producer, newLink)
	if !found {
		return true
	}
	var reach [maxOrderSteps]uint64
	n := copy(reach[:], p.reach)
	nOrder := len(p.Order)
	for _, e := range [2][2]int{{t, l.Producer}, {l.Consumer, t}} {
		if p.addOrder(e[0], e[1]) && resolveThreats(p, producer, newLink) {
			return true
		}
		p.Order = p.Order[:nOrder]
		p.reach = append(p.reach[:0], reach[:n]...)
	}
	return false
}
