package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/experiments"
)

func testConfig(t *testing.T, workload string, seed int64, trace bool) *config {
	t.Helper()
	base := t.TempDir()
	return &config{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		dir: filepath.Join(base, "run"), traceDir: filepath.Join(base, "traces"),
	}
}

func corpusSources(seed int64) []string {
	var out []string
	for _, o := range sweepCorpus(seed) {
		for _, c := range streamCells(o) {
			out = append(out, c.prog.Source)
		}
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	if !reflect.DeepEqual(corpusSources(3), corpusSources(3)) {
		t.Error("the same seed generated different corpora")
	}
	if reflect.DeepEqual(corpusSources(3), corpusSources(4)) {
		t.Error("different seeds generated the same corpus")
	}

	order := func(seed int64) []int { return newGPD(testConfig(t, "gpd-plan", seed, false)).order() }
	if !reflect.DeepEqual(order(3), order(3)) {
		t.Error("the same seed shuffled the plan requests differently")
	}
	if reflect.DeepEqual(order(3), order(4)) {
		t.Error("different seeds shuffled the plan requests the same way")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s metric %d: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

// checkSpans fails the test unless every span lies inside its parent,
// belongs to its parent's op, and has a non-negative self time.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s, op %d) is not nested in its parent %d (%s, op %d)", s.ID, s.Name, s.Op, p.ID, p.Name, p.Op)
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			t.Fatalf("span %d (%s) has negative self time %v", i, spans[i].Name, d)
		}
	}
}

func TestSpansNest(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := w * 10; op < w*10+10; op++ {
				ot := tr.op(op, w)
				ot.span("op", func() {
					ot.span("a", func() {
						ot.span("b", func() { time.Sleep(time.Millisecond) })
						ot.span("b", func() {})
					})
					ot.span("c", func() {})
				})
			}
		}()
	}
	wg.Wait()
	spans := tr.snapshot()
	if len(spans) != 20*5 {
		t.Fatalf("recorded %d spans, want 100", len(spans))
	}
	checkSpans(t, spans)
	self := layerSelf(spans)
	if self["b"] < 10*time.Millisecond {
		t.Errorf("self time of b is %v, want at least the 20 sleeps' 1ms each", self["b"])
	}
}

// readTrace loads an exported Chrome trace back into spans.
func readTrace(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	spans := make([]span, len(ct.TraceEvents))
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q", e.Name, e.Ph)
		}
		id := e.Args["id"]
		start := time.Duration(e.Ts * 1e3)
		spans[id] = span{ID: id, Parent: e.Args["parent"], Op: e.Args["op"], Worker: e.Tid, Name: e.Name,
			Start: start, End: start + time.Duration(e.Dur*1e3)}
	}
	return spans
}

// smokeBench returns a workload's bench over a corpus small enough for a
// unit test.
func smokeBench(cfg *config) bench {
	switch cfg.workload {
	case "gpd-plan":
		b := newGPD(cfg)
		b.targets = gpdTargets([]string{"fibonacci"})
		b.ops = planOps(b.targets)
		return b
	default:
		b := newSweep(cfg, cfg.workload == "sweep-warm")
		b.corpus = []experiments.StreamOptions{{Seed: 11, Cells: cellsPerProgram}}
		return b
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, def.name, 5, trace)
			if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
				t.Fatal(err)
			}
			b := smokeBench(cfg)
			var out bytes.Buffer
			var res *result
			var err error
			if trace {
				res, err = traceRun(cfg, newHeader(cfg), b, &out)
			} else {
				res, err = timedRun(cfg, def, b, &out)
			}
			b.close()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", def.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mislabeled: %+v", def.name, trace, d.Name, m)
				}
			}
			if !trace {
				if v := res.Metrics["ops_per_s"].Value; v <= 0 {
					t.Errorf("%s: ops_per_s = %v", def.name, v)
				}
				continue
			}
			if !strings.Contains(out.String(), `"traced_digest"`) {
				t.Errorf("%s: trace run printed no digest:\n%s", def.name, out.String())
			}
			spans := readTrace(t, filepath.Join(cfg.traceDir, def.name+"-seed5.json"))
			if len(spans) == 0 {
				t.Fatalf("%s: no spans exported", def.name)
			}
			checkSpans(t, spans)
		}
	}
}

func TestQuantile(t *testing.T) {
	// I_0.4(2, 3) = P(Binomial(4, 0.4) >= 2).
	if got := incBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Errorf("incBeta(2, 3, 0.4) = %v, want 0.5248", got)
	}
	var vals []float64
	for i := 99; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	if got := quantile(vals, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median estimate of 1..99 = %v, want 50", got)
	}
	if got := quantile(vals, 0.9); got < 89 || got > 91 {
		t.Errorf("p90 estimate of 1..99 = %v, want about 90", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one value = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 10, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBandMean(t *testing.T) {
	var vals []float64
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	for _, c := range []struct {
		vals   []float64
		lo, hi float64
		want   float64
	}{
		{vals, 0.25, 0.75, 50.5}, // 26..75
		{vals, 0.9, 1, 95.5},     // 91..100
		{vals, 0, 1, 50.5},
		// Positions 1.25..3.75 of 1..5 take 2 and 4 at three quarters.
		{[]float64{5, 4, 3, 2, 1}, 0.25, 0.75, 3},
		{[]float64{7}, 0.9, 1, 7},
		{nil, 0.25, 0.75, 0},
	} {
		if got := bandMean(c.vals, c.lo, c.hi); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("bandMean(%v, %v, %v) = %v, want %v", c.vals, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-cold", "--seconds", "0"},
		{"--workload", "sweep-cold", "--trace", "2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, t.TempDir()); err == nil {
			t.Errorf("run %v: want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}
