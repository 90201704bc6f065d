package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// streamTestOpts keeps stream-test cells cheap: two generated programs
// (12 cells) under a tiny planning budget.
func streamTestOpts() StreamOptions {
	return StreamOptions{
		Cells: 2 * cellsPerProgram(),
		Seed:  400,
		Planner: planner.Options{
			MaxPlans: 1,
			MaxNodes: 300,
			Timeout:  10 * time.Second,
		},
	}
}

// TestStreamTablesIdentical pins the streaming runner's determinism
// contract: the aggregate table renders byte-identically at parallelism
// 1/2/8, with the artifact store on (memory tier bounded so the LRU
// evictor cycles mid-run) and off.
func TestStreamTablesIdentical(t *testing.T) {
	type arm struct {
		name    string
		par     int
		caching bool
	}
	arms := []arm{
		{"p1-store", 1, true},
		{"p2-store", 2, true},
		{"p8-store", 8, true},
		{"p1-nostore", 1, false},
		{"p8-nostore", 8, false},
	}
	var ref string
	var refEvictions int64
	for i, a := range arms {
		opts := streamTestOpts()
		opts.Parallelism = a.par
		if a.caching {
			// A budget far below the ~30 artifacts two programs produce,
			// so determinism is checked under live eviction pressure.
			opts.Store = pipeline.NewStore().LimitMemory(6)
		} else {
			opts.Store = pipeline.NewDisabledStore()
		}
		run, err := RunStream(opts)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if run.OutputFailures != 0 {
			t.Errorf("%s: %d output-stability failures", a.name, run.OutputFailures)
		}
		if i == 0 {
			ref = run.Table
			refEvictions = opts.Store.MemEvictions()
			if ref == "" {
				t.Fatal("empty aggregate table")
			}
			continue
		}
		if run.Table != ref {
			t.Errorf("%s: aggregate table differs from %s\n%s", a.name, arms[0].name,
				diffHint(ref, run.Table))
		}
	}
	if refEvictions == 0 {
		t.Error("bounded memory tier never evicted; budget not binding")
	}
}

// TestStreamWarmReplaysNothing: a fresh store over a disk dir a cold
// stream filled serves every output replay from disk — the emulator never
// runs — and renders tables byte-identical to the cold ones.
func TestStreamWarmReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	pass := func() (*StreamRun, *pipeline.Store) {
		d, err := pipeline.OpenDisk(dir, pipeline.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts := streamTestOpts()
		opts.Parallelism = 2
		opts.Store = pipeline.NewStore().LimitMemory(6).WithDisk(d)
		run, err := RunStream(opts)
		if err != nil {
			t.Fatal(err)
		}
		return run, opts.Store
	}
	cold, coldStore := pass()
	// The plain reference replays once per program, not once per cell.
	if st := coldStore.Stats()[pipeline.StageRun]; st.Misses > int64(len(Configs())*cold.Programs) {
		t.Errorf("cold run stage computed %d replays for %d programs x %d configurations",
			st.Misses, cold.Programs, len(Configs()))
	}
	warm, warmStore := pass()
	if st := warmStore.Stats()[pipeline.StageRun]; st.Misses != 0 || st.DiskHits == 0 {
		t.Errorf("warm run stage: %d misses, %d disk hits; want 0 misses, >0 disk hits", st.Misses, st.DiskHits)
	}
	if warm.OutputFailures != 0 {
		t.Errorf("warm pass: %d output-stability failures", warm.OutputFailures)
	}
	if warm.Table != cold.Table {
		t.Errorf("warm table differs from cold\n%s", diffHint(cold.Table, warm.Table))
	}
}

// TestStreamRowsOrdered pins the JSONL contract: one row per cell, emitted
// in cell order regardless of worker interleaving, with the deterministic
// fields populated per arm.
func TestStreamRowsOrdered(t *testing.T) {
	var buf bytes.Buffer
	opts := streamTestOpts()
	opts.Parallelism = 8
	opts.Rows = &buf
	run, err := RunStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for dec.More() {
		var row StreamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		if row.Cell != n {
			t.Fatalf("row %d arrived out of order (cell %d)", n, row.Cell)
		}
		if row.Program == "" || row.Class == "" || row.Obf == "" {
			t.Errorf("row %d: missing identity fields: %+v", n, row)
		}
		switch row.Arm {
		case armScan:
			if row.Gadgets <= 0 || row.Pool <= 0 {
				t.Errorf("row %d: scan arm missing counts: %+v", n, row)
			}
			if !row.OutputOK {
				t.Errorf("row %d: output-stability check failed: %+v", n, row)
			}
		case armPlan:
			if row.Pool <= 0 {
				t.Errorf("row %d: plan arm missing pool: %+v", n, row)
			}
		default:
			t.Errorf("row %d: unknown arm %q", n, row.Arm)
		}
		n++
	}
	if n != run.Cells {
		t.Errorf("rows written = %d, want %d", n, run.Cells)
	}
	if run.RowsWritten != n {
		t.Errorf("RowsWritten = %d, want %d", run.RowsWritten, n)
	}
}

// TestStreamCancel pins the cancellation contract: a canceled context
// stops the run promptly and surfaces context.Canceled, and a context
// canceled mid-run (after the first result) still terminates cleanly.
func TestStreamCancel(t *testing.T) {
	// Already-canceled context: no cell should complete.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := streamTestOpts()
	opts.Ctx = ctx
	opts.Parallelism = 2
	if _, err := RunStream(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}

	// Cancel after the first rows flow: the runner must stop and report it.
	ctx, cancel = context.WithCancel(context.Background())
	opts = streamTestOpts()
	opts.Cells = 8 * cellsPerProgram()
	opts.Ctx = ctx
	opts.Parallelism = 2
	opts.Rows = cancelAfterWriter{cancel: cancel}
	if _, err := RunStream(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
}

// cancelAfterWriter cancels its context on the first JSONL row, from the
// collector goroutine — a mid-run cancellation at a deterministic point.
type cancelAfterWriter struct{ cancel context.CancelFunc }

func (w cancelAfterWriter) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// TestBenchStreamQuick runs the full benchmark harness on a small corpus
// and checks its structural invariants (not timing): per-arm table
// identity, disk-evictor cycling in the starved arm, and a sane record.
func TestBenchStreamQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness is slow; skipped in -short")
	}
	opts := streamTestOpts()
	opts.Cells = 4 * cellsPerProgram() // eviction arm = 1 program
	var rows bytes.Buffer
	opts.Rows = &rows
	b, err := BenchStream(opts, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !b.TablesIdentical {
		t.Error("warm-arm tables differ from cold pass")
	}
	if !b.EvictTablesIdentical {
		t.Error("starved-disk arm table differs from store-free reference")
	}
	if b.EvictEvictions == 0 {
		t.Error("starved disk budget produced no evictions")
	}
	if b.OutputFailures != 0 {
		t.Errorf("output-stability failures: %d", b.OutputFailures)
	}
	if b.Cells != opts.Cells || b.Programs != 4 {
		t.Errorf("cells/programs = %d/%d, want %d/4", b.Cells, b.Programs, opts.Cells)
	}
	if rows.Len() == 0 {
		t.Error("cold pass wrote no JSONL rows")
	}
	if b.WarmHitRate <= 0.5 {
		t.Errorf("warm hit rate %.2f; expected mostly store-served", b.WarmHitRate)
	}
	if s := RenderStreamBench(b); s == "" {
		t.Error("empty benchmark rendering")
	}
}
