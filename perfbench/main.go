// Command perfbench is the repository's benchmark. It drives the
// gadget-planner engine only through its public entry points and reports
// end-to-end metrics for one named workload, or, with --trace 1, a
// per-layer breakdown taken from a separate traced pass over the same ops.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the run
// header, the output digest and the output checks. Caches, sockets and
// traces go under .bench_build/ relative to the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, moves and on
// record which end-to-end metric the layer should move and on which
// workload, so a later change can predict its effect before measuring.
type metricDef struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves,omitempty"`
	On    string `json:"on,omitempty"`
}

// endToEnd are the metrics a user of the system sees; --trace 0 prints
// exactly these. The failed-op ratio is 0 on a correct run, so it is not
// one of them: the result line's attempted and failed counts carry it, and
// the detail line prints it as ops_failed_ratio. Per-op latency is given
// as band means (see bandMean): op_mid50_ms over the middle half of the
// ops, op_top10_ms over the slowest tenth. The detail line still prints
// the p50 and p90 with their sample count.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "op_mid50_ms", Unit: "ms"},
	{Name: "op_top10_ms", Unit: "ms"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "alloc_mb_per_op", Unit: "MB"},
	{Name: "peak_heap_mb", Unit: "MB"},
	{Name: "payloads_per_op", Unit: "1/op"},
}

// perLayer are the traced pass's metrics; --trace 1 prints exactly these.
// Times are summed self times over the traced pass, in milliseconds.
var perLayer = []metricDef{
	{"minic.parse_ms", "ms", "ops_per_s, op_top10_ms", "sweep-cold; setup_s of sweep-warm and gpd-plan"},
	{"mir.lower_ms", "ms", "ops_per_s, op_top10_ms", "sweep-cold; setup_s of sweep-warm and gpd-plan"},
	{"obfuscate.apply_ms", "ms", "ops_per_s, op_top10_ms", "sweep-cold; setup_s of sweep-warm and gpd-plan"},
	{"codegen.compile_ms", "ms", "ops_per_s, op_top10_ms", "sweep-cold; setup_s of sweep-warm and gpd-plan"},
	{"codegen.text_bytes", "B", "ops_per_s, op_top10_ms", "sweep-cold; setup_s of sweep-warm and gpd-plan"},
	{"gadget.count_ms", "ms", "ops_per_s, op_top10_ms, alloc_mb_per_op", "sweep-cold"},
	{"gadget.extract_ms", "ms", "ops_per_s, op_top10_ms, alloc_mb_per_op", "sweep-cold"},
	{"gadget.raw_candidates", "count", "ops_per_s, op_top10_ms, alloc_mb_per_op", "sweep-cold"},
	{"gadget.supported_ratio", "ratio", "ops_per_s, op_top10_ms, alloc_mb_per_op", "sweep-cold"},
	{"subsume.minimize_ms", "ms", "ops_per_s", "sweep-cold"},
	{"subsume.solver_queries", "count", "ops_per_s", "sweep-cold"},
	{"subsume.blasted", "count", "ops_per_s", "sweep-cold"},
	{"subsume.reduction_x", "x", "ops_per_s", "sweep-cold"},
	{"planner.search_self_ms", "ms", "op_top10_ms, ops_per_s, cpu_ms_per_op", "gpd-plan"},
	{"planner.expanded", "count", "op_top10_ms, ops_per_s, cpu_ms_per_op", "gpd-plan"},
	{"planner.provider_hit_ratio", "ratio", "op_top10_ms, ops_per_s, cpu_ms_per_op", "gpd-plan"},
	{"planner.accept_ratio", "ratio", "op_top10_ms, ops_per_s, cpu_ms_per_op", "gpd-plan"},
	{"payload.concretize_ms", "ms", "op_mid50_ms", "gpd-plan"},
	{"payload.verify_ms", "ms", "op_mid50_ms", "gpd-plan"},
	{"emu.replay_ms", "ms", "ops_per_s, cpu_ms_per_op", "sweep-warm (dominant), sweep-cold"},
	{"emu.steps", "count", "ops_per_s, cpu_ms_per_op", "sweep-warm (dominant), sweep-cold"},
	{"emu.steps_per_s", "1/s", "ops_per_s, cpu_ms_per_op", "sweep-warm (dominant), sweep-cold"},
	{"pipeline.store_self_ms", "ms", "ops_per_s", "sweep-warm (reads), sweep-cold (writes)"},
	{"pipeline.hit_ratio", "ratio", "ops_per_s", "sweep-warm (reads), sweep-cold (writes)"},
	{"pipeline.disk_read_mb", "MB", "ops_per_s", "sweep-warm (reads), sweep-cold (writes)"},
	{"pipeline.disk_written_mb", "MB", "ops_per_s", "sweep-warm (reads), sweep-cold (writes)"},
	{"pipeline.mem_evictions", "count", "ops_per_s", "sweep-warm (reads), sweep-cold (writes)"},
	{"serve.overhead_ms", "ms", "op_mid50_ms", "gpd-plan"},
	{"serve.dedup_joins", "count", "op_mid50_ms", "gpd-plan"},
	{"serve.request_errors", "count", "op_mid50_ms", "gpd-plan"},
	{"trace.overhead_ms", "ms", "none: traced wall time minus untraced wall time of one pass", "every workload"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir is the run's temporary directory (caches, sockets); traceDir
	// keeps exported traces after the run.
	dir      string
	traceDir string
}

// header identifies a run; it is printed first and embedded in traces.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func newHeader(cfg *config) header {
	return header{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
	}
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one (a checkout without version control cannot).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, ".bench_build"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the arguments, runs one workload under base and prints its
// records to stdout.
func run(args []string, stdout io.Writer, base string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "minimum length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      dir,
		traceDir: filepath.Join(base, "traces"),
	}

	h := newHeader(cfg)
	emit(stdout, map[string]any{"header": h})
	b := def.make(cfg)
	defer b.close()
	var res *result
	if cfg.trace {
		res, err = traceRun(cfg, h, b, stdout)
	} else {
		res, err = timedRun(cfg, def, b, stdout)
	}
	if err != nil {
		return err
	}
	emit(stdout, res)
	return nil
}

func emit(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are printed
	}
	fmt.Fprintln(w, string(data))
}

// timedRun sets up, then runs whole passes until cfg.seconds have passed,
// and reports the end-to-end metrics. Each pass is metered on its own and
// throughput, CPU, allocation and heap are medians over passes, so a burst
// of load from outside the process moves one pass rather than the run.
// The latency band means are medians over passes too; the p50 and p90 of
// the detail line pool the ops of every pass.
func timedRun(cfg *config, def workloadDef, b bench, stdout io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < def.setups; i++ {
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var passes []*passResult
	var phases []phase
	start := time.Now()
	for p := 0; time.Since(start) < time.Duration(cfg.seconds)*time.Second; p++ {
		// Every pass starts from a collected heap, not from the garbage
		// of set-up or of the pass before.
		runtime.GC()
		m := startMeter()
		r, err := b.pass(p)
		ph := m.finish()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		passes = append(passes, r)
		phases = append(phases, ph)
	}
	if err := b.check(passes); err != nil {
		return nil, err
	}

	ops, failed, payloads, planOps := 0, 0, 0, 0
	var lat []float64
	var notes []string
	per := make(map[string][]float64)
	for i, r := range passes {
		ops += r.ops
		failed += r.failed
		payloads += r.payloads
		planOps += r.planOps
		lat = append(lat, r.latMS...)
		notes = append(notes, r.notes...)
		if r.digest != passes[0].digest {
			failed += r.ops
			notes = append(notes, fmt.Sprintf("pass %d digest %s differs from pass 0 %s", i, r.digest, passes[0].digest))
		}
		ph, n := phases[i], float64(max(r.ops, 1))
		per["pass_s"] = append(per["pass_s"], ph.Wall.Seconds())
		per["ops_per_s"] = append(per["ops_per_s"], float64(r.ops)/ph.Wall.Seconds())
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], ms(ph.CPU)/n)
		per["alloc_mb_per_op"] = append(per["alloc_mb_per_op"], float64(ph.AllocBytes)/1e6/n)
		per["peak_heap_mb"] = append(per["peak_heap_mb"], float64(ph.PeakLive)/1e6)
		per["op_mid50_ms"] = append(per["op_mid50_ms"], bandMean(r.latMS, 0.25, 0.75))
		per["op_top10_ms"] = append(per["op_top10_ms"], bandMean(r.latMS, 0.9, 1))
	}
	if ops == 0 {
		return nil, errors.New("no ops ran")
	}
	emit(stdout, map[string]any{
		"digest":           passes[0].digest,
		"tables_sha256":    sha(passes[0].tables),
		"ops":              ops,
		"latency_samples":  len(lat),
		"op_p50_ms":        quantile(lat, 0.5),
		"op_p90_ms":        quantile(lat, 0.9),
		"failed":           failed,
		"ops_failed_ratio": float64(failed) / float64(ops),
		"failures":         notes,
		"setup_runs_s":     setups,
		"per_pass":         per,
	})
	vals := map[string]float64{
		"setup_s":         median(setups),
		"payloads_per_op": float64(payloads) / float64(max(planOps, 1)),
	}
	for name, v := range per {
		vals[name] = median(v)
	}
	return newResult(endToEnd, vals, ops, failed), nil
}

func newResult(defs []metricDef, vals map[string]float64, ops, failed int) *result {
	res := &result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}
