package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/experiments"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/minic"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/serve"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// The traced pass re-issues a pass's ops by calling each layer's entry
// point itself, in the order the program calls them, with a span around
// every call. Where the program goes through the store, the traced pass
// calls pipeline.Do with the same stage key and puts the layer call inside
// the compute closure, so the Do span's self time is the store's own cost:
// key hashing, the codec and the disk. The pass's digest must equal the
// untraced pass's.

// Constants the program applies as defaults on the paths traced here.
const (
	payloadBase     = 0x7FFF_8000 // core.Config.PayloadBase
	streamMaxSteps  = 80_000_000  // the stream runner's replay cap
	streamCountInst = 10          // the stream runner's classic-scan depth
	corePar         = 1           // stream cells and the server run at core parallelism 1
)

// layerStats are counts taken at the layer boundaries of the traced pass.
// Compute layers count only work they did, not artifacts the store served.
type layerStats struct {
	mu                     sync.Mutex
	textBytes              int64
	rawCandidates          int64
	supported              int64
	solverQueries, blasted int64
	subBefore, subAfter    int64
	expanded               int64
	provHits, provMisses   int64
	validated, accepted    int64
	emuSteps               int64
	doCalls, doHits        int64
	// store is the store the traced pass ran through.
	store *pipeline.Store
}

func (ls *layerStats) add(f func(ls *layerStats)) {
	ls.mu.Lock()
	f(ls)
	ls.mu.Unlock()
}

// do is pipeline.Do inside a span.
func do[T any](ot *opTrace, ls *layerStats, store *pipeline.Store, st pipeline.Stage, key func() string, compute func() (T, error)) (T, error) {
	var v T
	var info pipeline.Info
	var err error
	ot.span("pipeline.Do", func() {
		v, info, err = pipeline.Do(store, st, key(), compute)
	})
	ls.add(func(ls *layerStats) {
		ls.doCalls++
		if info.Hit {
			ls.doHits++
		}
	})
	return v, err
}

func passNames(passes []obfuscate.Pass) []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name()
	}
	return names
}

// tracedBuild is pipeline.BuildISACtx with codegen.BuildProgram's steps
// spelled out.
func tracedBuild(ot *opTrace, ls *layerStats, store *pipeline.Store, p benchprog.Program, passes []obfuscate.Pass, seed int64, isaName string) (*sbf.Binary, error) {
	key := func() string { return pipeline.BuildKeyISA(p.Source, passNames(passes), seed, isaName) }
	if isa.CanonicalISA(isaName) == isa.DefaultISA {
		isaName = "" // the default backend builds untagged binaries
	}
	return do(ot, ls, store, pipeline.StageBuild, key, func() (*sbf.Binary, error) {
		var prog *minic.Program
		var mod *mir.Module
		var bin *sbf.Binary
		var err error
		ot.span("minic.parse", func() { prog, err = minic.Parse(codegen.RuntimePrelude + "\n" + p.Source) })
		if err != nil {
			return nil, err
		}
		ot.span("mir.lower", func() { mod, err = mir.Lower(prog) })
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			ot.span("obfuscate.apply", func() { err = obfuscate.Apply(mod, seed, passes...) })
			if err != nil {
				return nil, err
			}
		}
		ot.span("codegen.compile", func() { bin, err = codegen.Compile(mod, codegen.Options{ISA: isaName}) })
		if err == nil {
			ls.add(func(ls *layerStats) { ls.textBytes += int64(bin.CodeSize()) })
		}
		return bin, err
	})
}

// analysis is core.Analyze's outcome on the traced path.
type analysis struct {
	raw    *gadget.Pool
	min    pipeline.Minimized
	minKey string
}

// tracedAnalyze is core.Analyze at parallelism 1: extraction, then
// subsumption.
func tracedAnalyze(ot *opTrace, ls *layerStats, store *pipeline.Store, bin *sbf.Binary) (*analysis, error) {
	xo := gadget.Options{Parallelism: corePar, ISA: bin.ISA}
	so := subsume.Options{Parallelism: corePar}
	var rawKey string
	a := &analysis{}
	raw, err := do(ot, ls, store, pipeline.StageExtract, func() string {
		rawKey = pipeline.ExtractKey(store.BinaryKey(bin), xo)
		return rawKey
	}, func() (*gadget.Pool, error) {
		var pool *gadget.Pool
		ot.span("gadget.extract", func() { pool = gadget.Extract(bin, xo) })
		ls.add(func(ls *layerStats) {
			ls.rawCandidates += int64(pool.Stats.RawCandidates)
			ls.supported += int64(pool.Stats.Supported)
		})
		return pool, nil
	})
	if err != nil {
		return nil, err
	}
	a.raw = raw
	a.min, err = do(ot, ls, store, pipeline.StageMinimize, func() string {
		a.minKey = pipeline.MinimizeKey(rawKey, so)
		return a.minKey
	}, func() (pipeline.Minimized, error) {
		var m pipeline.Minimized
		ot.span("subsume.minimize", func() { m.Pool, m.Stats = subsume.Minimize(raw, so) })
		ls.add(func(ls *layerStats) {
			ls.solverQueries += m.Stats.SolverQueries
			ls.blasted += m.Stats.Blasted
			ls.subBefore += int64(m.Stats.Before)
			ls.subAfter += int64(m.Stats.After)
		})
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// tracedPlan is core's plan stage: search the pool for goal, concretizing
// and emulator-verifying each complete plan.
func tracedPlan(ot *opTrace, ls *layerStats, store *pipeline.Store, bin *sbf.Binary, a *analysis, goal planner.Goal, opts planner.Options) (*pipeline.Attack, error) {
	opts.Parallelism = corePar
	key := func() string {
		return pipeline.PlanKey(a.minKey, goal.Name, opts, payloadBase, verifySteps, false)
	}
	atk, err := do(ot, ls, store, pipeline.StagePlan, key, func() (*pipeline.Attack, error) {
		atk := &pipeline.Attack{Goal: goal}
		pool := gadget.ClonePool(a.min.Pool)
		conc := payload.NewConcretizer(pool, bin, payloadBase)
		o := opts
		o.Validate = func(p *planner.Plan) bool {
			ls.add(func(ls *layerStats) { ls.validated++ })
			var pl *payload.Payload
			var err error
			ot.span("payload.concretize", func() { pl, err = conc.Concretize(p, goal) })
			if err == nil {
				ot.span("payload.verify", func() { err = payload.Verify(bin, pl, verifySteps) })
			}
			if err != nil {
				atk.ConcretizeFailures++
				return false
			}
			ls.add(func(ls *layerStats) { ls.accepted++ })
			atk.Payloads = append(atk.Payloads, pl)
			return true
		}
		var res *planner.Result
		ot.span("planner.search", func() { res = planner.Search(pool, goal, o) })
		ls.add(func(ls *layerStats) {
			ls.expanded += int64(res.Expanded)
			ls.provHits += res.CacheHits
			ls.provMisses += res.CacheMisses
		})
		atk.Search = *res
		atk.Plans = res.Plans
		return atk, nil
	})
	return atk, err
}

// tracedReplay runs a build in the emulator, as the stream runner's
// output check does.
func tracedReplay(ot *opTrace, ls *layerStats, bin *sbf.Binary, p benchprog.Program) (string, error) {
	var res *codegen.RunResult
	var err error
	ot.span("emu.replay", func() { res, err = codegen.Run(bin, p.Stdin, streamMaxSteps) })
	if err != nil {
		return "", err
	}
	ls.add(func(ls *layerStats) { ls.emuSteps += int64(res.Steps) })
	return res.Stdout, nil
}

// ---- sweeps ----

// streamCell is one cell of a RunStream sweep, addressed as RunStream
// addresses it.
type streamCell struct {
	idx   int
	prog  benchprog.Program
	class string
	cfg   experiments.ObfConfig
	arm   string
}

// cellsPerProgram is a program's share of a sweep: every configuration
// under the scan arm and the plan arm.
var cellsPerProgram = len(experiments.Configs()) * 2

// streamCells lists a sweep's cells in RunStream's order: programs from
// Seed+i cycling the size-class mix, then configurations, then arms.
func streamCells(o experiments.StreamOptions) []streamCell {
	classes := benchprog.SizeClasses()
	mix := []int{0, 0, 0, 1, 1, 2}
	var cells []streamCell
	for pi := 0; pi < (o.Cells+cellsPerProgram-1)/cellsPerProgram; pi++ {
		class := classes[mix[pi%len(mix)]]
		p := benchprog.Generate(o.Seed+int64(pi), class)
		for _, c := range experiments.Configs() {
			for _, arm := range []string{"scan", "plan"} {
				cells = append(cells, streamCell{idx: len(cells), prog: p, class: class.Name, cfg: c, arm: arm})
			}
		}
	}
	return cells
}

// streamPlanner is RunStream's default planning-arm budget.
var streamPlanner = planner.Options{MaxPlans: 2, MaxNodes: 800, Timeout: 10 * time.Second}

func tracedCell(ot *opTrace, ls *layerStats, store *pipeline.Store, seed int64, c streamCell) (experiments.StreamRow, error) {
	row := experiments.StreamRow{Cell: c.idx, Program: c.prog.Name, Class: c.class, Obf: c.cfg.Name, Arm: c.arm}
	var err error
	ot.span("op", func() {
		var bin *sbf.Binary
		bin, err = tracedBuild(ot, ls, store, c.prog, c.cfg.Passes(), seed, "")
		if err != nil {
			return
		}
		row.TextBytes = bin.CodeSize()
		if c.arm == "scan" {
			var counts map[gadget.JmpType]int
			counts, err = do(ot, ls, store, pipeline.StageCount, func() string {
				return pipeline.CountKeyISA(store.BinaryKey(bin), streamCountInst, bin.ISA)
			}, func() (map[gadget.JmpType]int, error) {
				var m map[gadget.JmpType]int
				// Stream builds are untagged x64 binaries.
				ot.span("gadget.count", func() { m = gadget.CountISA(bin, streamCountInst, isa.X64) })
				return m, nil
			})
			if err != nil {
				return
			}
			row.Gadgets = gadget.TotalCount(counts)
			var a *analysis
			if a, err = tracedAnalyze(ot, ls, store, bin); err != nil {
				return
			}
			row.RawPool, row.Pool = a.raw.Size(), a.min.Pool.Size()
			var plain *sbf.Binary
			if plain, err = tracedBuild(ot, ls, store, c.prog, nil, seed, ""); err != nil {
				return
			}
			var ref, out string
			if ref, err = tracedReplay(ot, ls, plain, c.prog); err != nil {
				return
			}
			if out, err = tracedReplay(ot, ls, bin, c.prog); err != nil {
				return
			}
			row.OutputOK = ref != "" && out == ref
			return
		}
		var a *analysis
		if a, err = tracedAnalyze(ot, ls, store, bin); err != nil {
			return
		}
		var atk *pipeline.Attack
		if atk, err = tracedPlan(ot, ls, store, bin, a, planner.ExecveGoal(), streamPlanner); err != nil {
			return
		}
		row.Pool, row.Payloads, row.OutputOK = a.min.Pool.Size(), len(atk.Payloads), true
	})
	return row, err
}

func (b *sweepBench) tracedPass(tr *tracer, ls *layerStats) (*passResult, error) {
	store, err := openStore(b.passDir())
	if err != nil {
		return nil, err
	}
	ls.store = store
	r := &passResult{}
	var canon bytes.Buffer
	opBase := 0
	for _, o := range b.corpus {
		cells := streamCells(o)
		rows := make([]experiments.StreamRow, len(cells))
		errs := make([]error, len(cells))
		// A worker takes a whole program, so no two workers ever need the
		// same artifact and a Do span never waits on the other worker.
		closedLoop(len(cells)/cellsPerProgram, workers, func(w, prog int) {
			for i := prog * cellsPerProgram; i < (prog+1)*cellsPerProgram; i++ {
				start := time.Now()
				rows[i], errs[i] = tracedCell(tr.op(opBase+i, w), ls, store, o.Seed, cells[i])
				rows[i].Millis = ms(time.Since(start))
			}
		})
		opBase += len(cells)
		for i, row := range rows {
			if errs[i] != nil {
				r.ops++
				r.fail(1, "cell %d: %v", i, errs[i])
				continue
			}
			r.addRow(row, &canon)
		}
	}
	r.digest = sha(canon.String())
	return r, nil
}

// ---- served planning ----

func (b *gpdBench) tracedPass(tr *tracer, ls *layerStats) (*passResult, error) {
	// The untraced reference pass of a trace run is pass 0; this pass
	// plans under pass 1's timeout, so its plan keys are fresh too.
	const p = 1
	order := b.order()
	ls.store = b.store
	results := make([]*serve.Result, len(b.ops))
	lat := make([]float64, len(b.ops))
	errs := make([]error, len(b.ops))
	closedLoop(len(order), workers, func(w, k int) {
		i := order[k]
		start := time.Now()
		results[i], errs[i] = b.tracedOp(tr.op(i, w), ls, b.ops[i], p)
		lat[i] = ms(time.Since(start))
	})
	return b.collect(results, errs, lat), nil
}

// tracedOp is serve.Run for one plan request, against the server's store.
func (b *gpdBench) tracedOp(ot *opTrace, ls *layerStats, op planOp, p int) (*serve.Result, error) {
	req := op.request(p)
	prog, ok := benchprog.ByName(req.Program)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", req.Program)
	}
	passes, err := obfuscate.ParseSpec(req.Obf)
	if err != nil {
		return nil, err
	}
	goal, ok := goalByName(req.Goal, req.ISA)
	if !ok {
		return nil, fmt.Errorf("unknown goal %q", req.Goal)
	}
	res := &serve.Result{Op: serve.OpPlan}
	ot.span("op", func() {
		var bin *sbf.Binary
		if bin, err = tracedBuild(ot, ls, b.store, prog, passes, req.Seed, req.ISA); err != nil {
			return
		}
		res.TextBytes = bin.CodeSize()
		var a *analysis
		if a, err = tracedAnalyze(ot, ls, b.store, bin); err != nil {
			return
		}
		res.RawPool, res.Pool, res.Subsume = a.raw.Size(), a.min.Pool.Size(), a.min.Stats.String()
		var atk *pipeline.Attack
		popts := planner.Options{Timeout: time.Duration(req.TimeoutMS) * time.Millisecond}
		if atk, err = tracedPlan(ot, ls, b.store, bin, a, goal, popts); err != nil {
			return
		}
		gr := serve.GoalResult{Goal: goal.Name, Plans: len(atk.Plans), Search: atk.Search.StatsLine()}
		for _, pl := range atk.Payloads {
			gr.Payloads = append(gr.Payloads, serve.PayloadResult{
				Bytes: len(pl.Bytes), Gadgets: len(pl.Chain), SHA256: sha(string(pl.Bytes)),
				Base: pl.Base, Entry: pl.Entry, Data: pl.Bytes,
			})
		}
		res.Goals = []serve.GoalResult{gr}
	})
	return res, err
}

// ---- the trace run ----

// traceRun sets up once, runs one untraced pass as the reference, then the
// traced pass over the same ops, and reports per-layer metrics.
func traceRun(cfg *config, h header, b bench, stdout io.Writer) (*result, error) {
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	start := time.Now()
	ref, err := b.pass(0)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	untraced := time.Since(start)
	if err := b.check([]*passResult{ref}); err != nil {
		return nil, err
	}

	tr := newTracer()
	ls := &layerStats{}
	runtime.GC()
	start = time.Now()
	got, err := b.tracedPass(tr, ls)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	traced := time.Since(start)
	spans := tr.snapshot()

	failed := ref.failed + got.failed
	notes := append(ref.notes, got.notes...)
	if got.digest != ref.digest {
		failed += got.ops
		notes = append(notes, fmt.Sprintf("traced digest %s differs from untraced %s", got.digest, ref.digest))
	}

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeChromeTrace(tracePath, h, spans); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}

	self := layerSelf(spans)
	vals := layerValues(self, ls)
	vals["trace.overhead_ms"] = ms(traced - untraced)
	if s := ls.store; s != nil {
		ds := s.DiskStats()
		vals["pipeline.disk_read_mb"] = float64(ds.BytesRead) / 1e6
		vals["pipeline.disk_written_mb"] = float64(ds.BytesWritten) / 1e6
		vals["pipeline.mem_evictions"] = float64(s.MemEvictions())
	}

	var layers []layerShare
	for name, d := range self {
		layers = append(layers, layerShare{name, ms(d)})
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].MS > layers[j].MS })
	detail := map[string]any{
		"digest":           ref.digest,
		"traced_digest":    got.digest,
		"tables_sha256":    sha(ref.tables),
		"ops":              ref.ops + got.ops,
		"failed":           failed,
		"ops_failed_ratio": float64(failed) / float64(ref.ops+got.ops),
		"failures":         notes,
		"untraced_s":       untraced.Seconds(),
		"traced_s":         traced.Seconds(),
		"spans":            len(spans),
		"trace_file":       tracePath,
		"self_ms_by_layer": layers,
		"layer_table":      perLayer,
	}
	if g, ok := b.(*gpdBench); ok {
		snap := g.srv.Snapshot()
		vals["serve.overhead_ms"] = median(ref.overheadMS)
		vals["serve.dedup_joins"] = float64(snap.DedupJoins)
		vals["serve.request_errors"] = float64(snap.Errors)
		detail["self_ms_by_layer_rv64c_llvm_execve"] = g.deepShare(spans)
	}
	emit(stdout, detail)
	return newResult(perLayer, vals, ref.ops+got.ops, failed), nil
}

type layerShare struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
}

// layerValues turns self times and boundary counts into per-layer metrics.
func layerValues(self map[string]time.Duration, ls *layerStats) map[string]float64 {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	replay := self["emu.replay"]
	// The replay span has no children, so its self time is its whole
	// duration: steps over it is the emulator's speed.
	stepsPerS := 0.0
	if replay > 0 {
		stepsPerS = float64(ls.emuSteps) / replay.Seconds()
	}
	return map[string]float64{
		"minic.parse_ms":             ms(self["minic.parse"]),
		"mir.lower_ms":               ms(self["mir.lower"]),
		"obfuscate.apply_ms":         ms(self["obfuscate.apply"]),
		"codegen.compile_ms":         ms(self["codegen.compile"]),
		"codegen.text_bytes":         float64(ls.textBytes),
		"gadget.count_ms":            ms(self["gadget.count"]),
		"gadget.extract_ms":          ms(self["gadget.extract"]),
		"gadget.raw_candidates":      float64(ls.rawCandidates),
		"gadget.supported_ratio":     ratio(ls.supported, ls.rawCandidates),
		"subsume.minimize_ms":        ms(self["subsume.minimize"]),
		"subsume.solver_queries":     float64(ls.solverQueries),
		"subsume.blasted":            float64(ls.blasted),
		"subsume.reduction_x":        ratio(ls.subBefore, ls.subAfter),
		"planner.search_self_ms":     ms(self["planner.search"]),
		"planner.expanded":           float64(ls.expanded),
		"planner.provider_hit_ratio": ratio(ls.provHits, ls.provHits+ls.provMisses),
		"planner.accept_ratio":       ratio(ls.accepted, ls.validated),
		"payload.concretize_ms":      ms(self["payload.concretize"]),
		"payload.verify_ms":          ms(self["payload.verify"]),
		"emu.replay_ms":              ms(replay),
		"emu.steps":                  float64(ls.emuSteps),
		"emu.steps_per_s":            stepsPerS,
		"pipeline.store_self_ms":     ms(self["pipeline.Do"]),
		"pipeline.hit_ratio":         ratio(ls.doHits, ls.doCalls),
	}
}

// deepShare is the self-time split of the rv64c LLVM-Obf execve requests,
// the only ones whose search runs to the node budget.
func (b *gpdBench) deepShare(spans []span) []layerShare {
	deep := make(map[int]bool)
	for i, op := range b.ops {
		if op.isa == "rv64c" && op.obf == "llvm" && op.goal == "execve" {
			deep[i] = true
		}
	}
	self := selfTimes(spans)
	sum := make(map[string]float64)
	for i, s := range spans {
		if deep[s.Op] {
			sum[s.Name] += ms(self[i])
		}
	}
	var out []layerShare
	for name, v := range sum {
		out = append(out, layerShare{name, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MS > out[j].MS })
	return out
}
