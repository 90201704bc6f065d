package gadget

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// Options tune extraction.
type Options struct {
	// ISA selects the instruction-set backend ("x64", "rv64", "rv64c").
	// Empty means the default x64 backend.
	ISA string
	// MaxInsts caps the instruction count along one gadget path (including
	// merged pieces). Default 40 — the spill-style code generator produces
	// long basic blocks, and useful register loads sit well before the
	// block terminator.
	MaxInsts int
	// MaxForks caps how many conditional jumps a path may pass through.
	// Default 2.
	MaxForks int
	// MaxMerges caps how many direct jumps a path may follow. Default 3.
	MaxMerges int
	// Stride scans every Stride-th byte offset as a potential gadget start.
	// Default is the backend's decode stride: 1 on x64 (every offset,
	// finding unaligned gadgets), 4 on rv64, 2 on rv64c.
	Stride int
	// Parallelism is how many workers scan section shards concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 scans single-threaded. The result
	// is identical at every worker count: shard boundaries and the merge
	// order depend only on the binary and Stride, never on scheduling.
	Parallelism int
	// NoPredecode disables the shared per-section predecode table and walks
	// paths by re-invoking isa.Decode at every step (the seed behavior).
	// The pool is byte-identical either way — the table is a pure decode
	// cache — so the flag exists only as the A/B arm of the extraction
	// benchmark and the reference side of the equivalence tests, and is
	// excluded from Fingerprint like Parallelism.
	NoPredecode bool
}

// Fingerprint renders the options' semantic fields canonically (defaults
// applied) for content-addressed artifact keys: two Options values with the
// same fingerprint produce byte-identical pools. Parallelism and
// NoPredecode are excluded — extraction results are identical at every
// worker count and with the predecode table on or off.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	fp := fmt.Sprintf("insts=%d,forks=%d,merges=%d,stride=%d",
		o.MaxInsts, o.MaxForks, o.MaxMerges, o.Stride)
	// The backend joins the fingerprint only when it is not the default, so
	// every pre-multi-ISA x64 key string — and the warm caches addressed by
	// them — stays valid byte-for-byte.
	if name := isa.CanonicalISA(o.ISA); name != isa.DefaultISA {
		fp += ",isa=" + name
	}
	return fp
}

// backend resolves the options' ISA field; unknown names fall back to the
// default backend (callers validate names at the CLI boundary).
func (o Options) backend() isa.Backend {
	be, ok := isa.ByName(o.ISA)
	if !ok {
		return isa.X64
	}
	return be
}

func (o Options) withDefaults() Options {
	if o.MaxInsts == 0 {
		o.MaxInsts = 40
	}
	if o.MaxForks == 0 {
		o.MaxForks = 2
	}
	if o.MaxMerges == 0 {
		o.MaxMerges = 3
	}
	if o.Stride == 0 {
		o.Stride = o.backend().Stride()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// fetcher resolves code bytes at virtual addresses and decodes them with its
// backend. It is read-only after construction and safe for concurrent use by
// scan workers.
type fetcher struct {
	secs []*sbf.Section
	be   isa.Backend
}

func newFetcher(bin *sbf.Binary, be isa.Backend) *fetcher {
	return &fetcher{secs: bin.ExecSections(), be: be}
}

// at returns the code slice starting at addr, or nil.
func (f *fetcher) at(addr uint64) []byte {
	for _, s := range f.secs {
		if s.Contains(addr) {
			return s.Data[addr-s.Addr:]
		}
	}
	return nil
}

// chunkStrides is how many scan offsets one extraction shard covers. The
// chunk size is fixed (not derived from the worker count) so the shard
// partition — and with it the merge order and every interned node identity —
// is the same no matter how many workers run.
const chunkStrides = 2048

// shardJob is one contiguous scan range [lo, hi) of a section's bytes.
type shardJob struct {
	sec    *sbf.Section
	lo, hi int
}

// shard is one worker unit's output: gadgets whose effects live in the
// shard's private builder, plus local statistics. The executor and seen set
// are the shard's reusable per-path scratch.
type shard struct {
	b       *expr.Builder
	ex      *symex.Executor
	seen    map[uint64]struct{}
	gadgets []*Gadget
	stats   Stats
}

// Extract scans every executable byte offset of bin, walks gadget paths
// (forking at conditional jumps, merging across direct jumps), runs symbolic
// execution on each, and returns the pool of usable gadgets.
//
// Unless Options.NoPredecode is set, every section is first decoded once
// into a shared read-only predecode Table and all path walks chain through
// it, so each code byte is decoded exactly once no matter how many paths
// cross it.
//
// The scan is sharded across Options.Parallelism workers. Each worker
// symbolically executes its shard into a private expr.Builder; shards are
// then merged in shard order, re-interning every effect DAG into the pool's
// builder via expr.Import, so the pooled effects satisfy the same
// pointer-equality invariant a sequential scan would produce.
func Extract(bin *sbf.Binary, opts Options) *Pool {
	opts = opts.withDefaults()
	be := opts.backend()
	var src instSource
	if opts.NoPredecode {
		src = newFetcher(bin, be)
	} else {
		src = PredecodeISA(bin, opts.Parallelism, be)
	}
	return extractFrom(bin, opts, src)
}

// extractFrom is Extract's scan-and-merge over an already chosen
// instruction source; opts must have its defaults applied.
func extractFrom(bin *sbf.Binary, opts Options, src instSource) *Pool {
	be := opts.backend()
	var jobs []shardJob
	chunkBytes := opts.Stride * chunkStrides
	for _, sec := range bin.ExecSections() {
		for lo := 0; lo < len(sec.Data); lo += chunkBytes {
			hi := lo + chunkBytes
			if hi > len(sec.Data) {
				hi = len(sec.Data)
			}
			jobs = append(jobs, shardJob{sec: sec, lo: lo, hi: hi})
		}
	}

	shards := make([]*shard, len(jobs))
	workers := opts.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			shards[i] = scanShard(src, job, opts)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					shards[i] = scanShard(src, jobs[i], opts)
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	// Merge in shard order: statistics sum, and each shard's effect DAGs are
	// re-interned into the pool builder. Both the shard sequence and the
	// field order inside effectImporter are fixed, so node identities in the
	// merged builder are deterministic.
	b := expr.NewBuilder()
	pool := &Pool{
		Builder: b,
		ISA:     be.Name(),
		ByReg:   make(map[isa.Reg][]*Gadget),
		Stats:   Stats{ByType: make(map[JmpType]int)},
	}
	imp := newEffectImporter(b)
	var all []*Gadget
	for _, sh := range shards {
		pool.Stats.merge(sh.stats)
		for _, g := range sh.gadgets {
			g.Effect = imp.effect(g.Effect)
		}
		all = append(all, sh.gadgets...)
	}
	// Deterministic pool order regardless of sharding: by (addr, len), with
	// the stable sort preserving the walk's emission order for equal keys.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Location != all[j].Location {
			return all[i].Location < all[j].Location
		}
		return all[i].Len < all[j].Len
	})
	for _, g := range all {
		fillRecord(b, g, be)
		pool.add(g)
	}
	return pool
}

// scanShard scans one job's offsets into a fresh shard.
func scanShard(src instSource, job shardJob, opts Options) *shard {
	sh := &shard{
		b:     expr.NewBuilder(),
		stats: Stats{ByType: make(map[JmpType]int)},
		// Path keys embed the start address, and shards partition the
		// starts, so a shard-local seen set deduplicates exactly like a
		// global one.
		seen: make(map[uint64]struct{}),
	}
	sh.ex = symex.NewExecutorISA(sh.b, opts.backend())
	w := &walker{src: src, opts: opts, sh: sh}
	root := w.getBuf()
	for off := job.lo; off < job.hi; off += opts.Stride {
		sh.stats.ScannedOffsets++
		w.start = job.sec.Addr + uint64(off)
		w.walk(w.start, root[:0])
	}
	return sh
}

// effectImporter re-interns effect DAGs into a destination builder. It
// holds the offset-sort scratch across effects, so the per-effect
// allocations are only the maps and slices that escape into the imported
// effect itself.
type effectImporter struct {
	imp  *expr.Importer
	offs []int64
}

func newEffectImporter(b *expr.Builder) *effectImporter {
	return &effectImporter{imp: expr.NewImporter(b)}
}

// effect re-interns an effect's DAGs into the importer's destination
// builder. Fields are visited in a fixed order (registers, next RIP, stack
// writes by ascending offset, memory accesses, conditions) so the
// destination's interning order is deterministic. Empty stack-write and
// input maps stay nil — most gadgets touch no stack slot, and consumers
// only range over or index these maps.
func (ei *effectImporter) effect(e *symex.Effect) *symex.Effect {
	out := &symex.Effect{
		StackDelta: e.StackDelta,
		End:        e.End,
	}
	out.Regs = make([]*expr.Node, len(e.Regs))
	for r := range e.Regs {
		out.Regs[r] = ei.imp.Import(e.Regs[r])
	}
	out.NextRIP = ei.imp.Import(e.NextRIP)
	if len(e.StackWrites) > 0 {
		offs := ei.offs[:0]
		for off := range e.StackWrites {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		ei.offs = offs
		out.StackWrites = make(map[int64]symex.Write, len(e.StackWrites))
		for _, off := range offs {
			w := e.StackWrites[off]
			out.StackWrites[off] = symex.Write{Val: ei.imp.Import(w.Val), Size: w.Size}
		}
	}
	if len(e.Inputs) > 0 {
		out.Inputs = make(map[int64]uint8, len(e.Inputs))
		for off, size := range e.Inputs {
			out.Inputs[off] = size
		}
	}
	if len(e.MemReads) > 0 {
		out.MemReads = make([]symex.MemAccess, len(e.MemReads))
		for i, a := range e.MemReads {
			out.MemReads[i] = symex.MemAccess{Addr: ei.imp.Import(a.Addr), Val: ei.imp.Import(a.Val), Size: a.Size}
		}
	}
	if len(e.MemWrites) > 0 {
		out.MemWrites = make([]symex.MemAccess, len(e.MemWrites))
		for i, a := range e.MemWrites {
			out.MemWrites[i] = symex.MemAccess{Addr: ei.imp.Import(a.Addr), Val: ei.imp.Import(a.Val), Size: a.Size}
		}
	}
	out.Conds = ei.imp.ImportAll(e.Conds)
	return out
}

// walker enumerates gadget paths from one shard's start offsets. It owns a
// freelist of step buffers (capacity MaxInsts+1, so in-walk appends never
// reallocate) that back both the main path and the copies forked at
// conditional jumps. Steps point at the instruction source's entries
// rather than copying them; emit copies what a kept gadget needs, so the
// buffers recycle freely. One walker serves one shard — it is not safe for
// concurrent use.
type walker struct {
	src   instSource
	opts  Options
	sh    *shard
	start uint64
	free  [][]symex.Step
}

// getBuf returns an empty step buffer with capacity MaxInsts+1.
func (w *walker) getBuf() []symex.Step {
	if n := len(w.free) - 1; n >= 0 {
		b := w.free[n]
		w.free = w.free[:n]
		return b[:0]
	}
	return make([]symex.Step, 0, w.opts.MaxInsts+1)
}

// putBuf returns a buffer to the freelist once the fork that borrowed it
// has been fully explored.
func (w *walker) putBuf(b []symex.Step) { w.free = append(w.free, b) }

// found records one complete (branch-terminated) path: raw-candidate
// statistics, then shard emission. steps is walker-owned scratch; emit
// copies what it keeps.
func (w *walker) found(steps []symex.Step, end symex.EndKind) {
	w.sh.stats.RawCandidates++
	w.sh.stats.ByType[Classify(steps, end)]++
	w.sh.emit(w.start, steps)
}

// walk follows one gadget path from addr, invoking found for every complete
// (branch-terminated) path. Instructions come from w.src — the shared
// predecode table, or decode-per-step when Options.NoPredecode retains the
// seed behavior.
//
// The fork/merge budget is recounted from the steps prefix on entry, not
// threaded through the recursion, reproducing the seed walk exactly: in
// particular a merged direct call consumes in-loop merge budget but is not
// recounted when a later fork recurses, so the taken branch regains that
// budget just as it always did. Byte-identity with the seed pool depends on
// this quirk staying put.
func (w *walker) walk(addr uint64, steps []symex.Step) {
	forks, merges := 0, 0
	for i := range steps {
		switch in := steps[i].Inst; {
		case in.Op == isa.OpJcc || in.Op == isa.OpBcc:
			forks++
		case in.Op == isa.OpJmp && in.A.Kind == isa.KindImm:
			merges++
		}
	}

	for len(steps) < w.opts.MaxInsts {
		inst, ok := w.src.inst(addr)
		if !ok {
			return
		}

		switch {
		case inst.Op == isa.OpRet:
			w.found(append(steps, symex.Step{Inst: inst}), symex.EndRet)
			return
		case inst.Op == isa.OpSyscall:
			w.found(append(steps, symex.Step{Inst: inst}), symex.EndSyscall)
			return
		case inst.Op == isa.OpJmp && inst.A.Kind != isa.KindImm:
			w.found(append(steps, symex.Step{Inst: inst}), symex.EndJmpInd)
			return
		case inst.Op == isa.OpCall && inst.A.Kind != isa.KindImm:
			w.found(append(steps, symex.Step{Inst: inst}), symex.EndCallInd)
			return
		case inst.Op == isa.OpJalr:
			// RISC-V jalr with a non-{x0,ra} link register: indirect jump
			// that also deposits a return address.
			w.found(append(steps, symex.Step{Inst: inst}), symex.EndJmpInd)
			return
		case inst.Op == isa.OpJmp: // direct: merge with the target gadget
			if merges >= w.opts.MaxMerges {
				w.found(append(steps, symex.Step{Inst: inst}), symex.EndJmpDir)
				return
			}
			merges++
			steps = append(steps, symex.Step{Inst: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpCall: // direct call: follow into the callee
			if merges >= w.opts.MaxMerges {
				return
			}
			merges++
			steps = append(steps, symex.Step{Inst: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpJal: // RISC-V direct jump-and-link: follow it
			if merges >= w.opts.MaxMerges {
				return
			}
			merges++
			steps = append(steps, symex.Step{Inst: inst})
			addr = uint64(inst.A.Imm)
		case inst.Op == isa.OpJcc || inst.Op == isa.OpBcc:
			if forks >= w.opts.MaxForks {
				// Report the taken-terminal variant for counting, then stop.
				w.found(append(steps, symex.Step{Inst: inst, Taken: true}), symex.EndJmpDir)
				return
			}
			// Fork: the taken path continues at the target (Fig. 4c), the
			// not-taken path falls through (Fig. 4b). The taken copy lives
			// in a freelist buffer for the duration of its subtree.
			taken := w.getBuf()
			taken = append(taken, steps...)
			taken = append(taken, symex.Step{Inst: inst, Taken: true})
			w.walk(uint64(inst.A.Imm), taken)
			w.putBuf(taken)
			steps = append(steps, symex.Step{Inst: inst, Taken: false})
			addr = inst.End()
			forks++
		case inst.Op == isa.OpHlt || inst.Op == isa.OpInt3:
			return // traps end the path unusably
		default:
			steps = append(steps, symex.Step{Inst: inst})
			addr = inst.End()
		}
	}
}

// pathHash identifies a gadget path for deduplication: the start address
// and every step's (address, taken) pair — the identity the seed's
// heap-allocated string key materialized — folded through a 64-bit
// splitmix-style mixer instead. The hash is a pure function of the path, so
// shard contents stay identical at every worker count; at well under a
// million paths per shard-local set, a 64-bit avalanche hash makes a
// colliding pair vanishingly unlikely (and the equivalence tests pin pool
// identity against the reference walk regardless).
func pathHash(start uint64, steps []symex.Step) uint64 {
	h := mix64(0x9E3779B97F4A7C15, start)
	for i := range steps {
		// The taken bit rides in bit 0; instruction addresses lose only a
		// top bit that virtual addresses never use.
		v := steps[i].Inst.Addr << 1
		if steps[i].Taken {
			v |= 1
		}
		h = mix64(h, v)
	}
	return h
}

// mix64 folds v into h with splitmix64's finalizer (full avalanche, six
// arithmetic ops — far cheaper than byte-wise FNV on this hot path).
func mix64(h, v uint64) uint64 {
	z := h ^ v
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// emit runs symbolic execution on a complete path and records the gadget in
// the shard if its semantics are supported. steps is walker scratch whose
// instructions point into the instruction source; on success both are
// copied — the instructions into one backing array owned by the gadget —
// so a pool never keeps the predecode table alive. The Table II record
// fields that depend on builder node identity (ClobRegs/CtrlRegs) are
// filled at merge time, after the effect is imported into the pool builder.
func (sh *shard) emit(start uint64, steps []symex.Step) {
	// Paths that end in a direct jump are counted but not pooled: their
	// next-RIP is a constant, so they cannot continue an attacker chain
	// (merged variants of them are walked separately).
	last := steps[len(steps)-1]
	if last.Inst.Op == isa.OpJcc || last.Inst.Op == isa.OpBcc ||
		(last.Inst.Op == isa.OpJmp && last.Inst.A.Kind == isa.KindImm) {
		return
	}

	key := pathHash(start, steps)
	if _, ok := sh.seen[key]; ok {
		return
	}
	sh.seen[key] = struct{}{}

	eff, err := sh.ex.Exec(steps)
	if err != nil {
		sh.stats.Unsupported++
		return
	}
	sh.stats.Supported++

	g := &Gadget{
		Location: start,
		Len:      pathLen(steps),
		JmpType:  Classify(steps, eff.End),
		Steps:    make([]symex.Step, len(steps)),
		Effect:   eff,
	}
	insts := make([]isa.Inst, len(steps))
	for i := range steps {
		in := &insts[i]
		*in = *steps[i].Inst
		g.Steps[i] = symex.Step{Inst: in, Taken: steps[i].Taken}
		if in.Op == isa.OpJcc || in.Op == isa.OpBcc {
			g.HasCond = true
		}
		if in.Op == isa.OpJmp && in.A.Kind == isa.KindImm {
			g.Merged = true
		}
	}
	if g.Merged {
		sh.stats.MergedGadgets++
	}
	sh.gadgets = append(sh.gadgets, g)
}

// pathLen sums the encoded byte length of the path.
func pathLen(steps []symex.Step) int {
	n := 0
	for i := range steps {
		n += int(steps[i].Inst.Len)
	}
	return n
}

// Count performs the cheap classic scan used for Fig. 1 / Table I numbers:
// decode from every byte offset until the first branch instruction and
// classify it. No symbolic execution, no merging, no forking — this mirrors
// what syntactic tools such as ROPGadget count. The scan chains through a
// predecode table, so each code byte is decoded once instead of once per
// covering window.
func Count(bin *sbf.Binary, maxInsts int) map[JmpType]int {
	return CountISA(bin, maxInsts, isa.X64)
}

// CountISA is Count against a specific backend. The scan still tries every
// byte offset; on fixed-stride backends the predecode table leaves
// misaligned offsets undecodable, so only stride-aligned chains count —
// exactly the aligned-decode property that shrinks the RISC-V surface.
func CountISA(bin *sbf.Binary, maxInsts int, be isa.Backend) map[JmpType]int {
	if maxInsts == 0 {
		maxInsts = 10
	}
	t := PredecodeISA(bin, runtime.GOMAXPROCS(0), be)
	counts := make(map[JmpType]int)
	for si, sec := range t.secs {
		insts := t.insts[si]
		for off := 0; off < len(sec.Data); off++ {
			pos := off
			hasCond := false
			for n := 0; n < maxInsts; n++ {
				if pos >= len(insts) {
					break
				}
				inst := &insts[pos]
				if inst.Len == 0 {
					break
				}
				pos += int(inst.Len)
				var jt JmpType
				switch be.Classify(inst) {
				case isa.ClassRet:
					jt = TypeReturn
				case isa.ClassSyscall:
					jt = TypeSyscall
				case isa.ClassJmpDir:
					jt = TypeUDJ
					if hasCond {
						jt = TypeCDJ
					}
				case isa.ClassJmpInd, isa.ClassCallInd:
					jt = TypeUIJ
					if hasCond {
						jt = TypeCIJ
					}
				case isa.ClassCallDir:
					// Direct call: classic scanners stop without counting.
					jt = TypeInvalid
				case isa.ClassCondBr:
					hasCond = true
					continue
				default:
					continue
				}
				if jt != TypeInvalid {
					counts[jt]++
				}
				break
			}
		}
	}
	return counts
}

// TotalCount sums a Count result.
func TotalCount(counts map[JmpType]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// ClonePool deep-copies a pool into a fresh expression builder: every
// gadget record is copied (IDs and immutable slices included) and its
// effect DAG re-interned via expr.Import, walking the gadgets in pool
// order. Index membership (ByReg, Syscalls) is carried over by identity,
// so the clone is indistinguishable from the original to the planner.
//
// Consumers that mutate builder state — payload concretization interns
// fresh nodes for cells, scratch memory, and substitutions — clone per
// consumer so concurrent consumers never share a builder. Because the
// clone is built in a deterministic order, the clone's node identities
// (and everything downstream of them, solver models included) are a
// function of the source pool alone, not of who else used it.
func ClonePool(p *Pool) *Pool {
	b := expr.NewBuilder()
	out := &Pool{
		Builder: b,
		ISA:     p.ISA,
		ByReg:   make(map[isa.Reg][]*Gadget, len(p.ByReg)),
		Stats:   p.Stats,
	}
	out.Stats.ByType = make(map[JmpType]int, len(p.Stats.ByType))
	for t, n := range p.Stats.ByType {
		out.Stats.ByType[t] = n
	}
	imp := newEffectImporter(b)
	clones := make(map[*Gadget]*Gadget, len(p.Gadgets))
	out.Gadgets = make([]*Gadget, len(p.Gadgets))
	for i, g := range p.Gadgets {
		cg := *g // Steps/ClobRegs/CtrlRegs are shared immutably
		cg.Effect = imp.effect(g.Effect)
		out.Gadgets[i] = &cg
		clones[g] = &cg
	}
	for _, g := range p.Syscalls {
		out.Syscalls = append(out.Syscalls, clones[g])
	}
	for r, gs := range p.ByReg {
		idx := make([]*Gadget, len(gs))
		for i, g := range gs {
			idx[i] = clones[g]
		}
		out.ByReg[r] = idx
	}
	return out
}
