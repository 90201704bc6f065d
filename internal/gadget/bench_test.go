package gadget_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

func benchBinary(b *testing.B) *sbf.Binary {
	b.Helper()
	bin, err := benchprog.Build(benchprog.Netperf(), obfuscate.LLVMObf(), 42)
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

// baselineNs times fn (best of three) for the speedup metric; nested
// testing.Benchmark would deadlock on the benchmark lock.
func baselineNs(fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// BenchmarkExtractParallel measures sharded extraction on obfuscated
// netperf-sim at several worker counts, reporting speedup versus the
// single-worker baseline (the "speedup-x" metric; ~1.0 on one core).
func BenchmarkExtractParallel(b *testing.B) {
	bin := benchBinary(b)
	baseline := baselineNs(func() {
		gadget.Extract(bin, gadget.Options{Parallelism: 1})
	})

	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				pool := gadget.Extract(bin, gadget.Options{Parallelism: par})
				size = pool.Size()
			}
			if size == 0 {
				b.Fatal("empty pool")
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(baseline/perOp, "speedup-x")
		})
	}
}

// BenchmarkExtractPredecode is the table A/B arm: the same single-worker
// extraction with the shared predecode table on (the default) and off (the
// seed's decode-per-step walk). Allocation counts make the walker's
// buffer-freelist and hashed-dedup savings visible alongside the time.
func BenchmarkExtractPredecode(b *testing.B) {
	bin := benchBinary(b)
	for _, noTable := range []bool{false, true} {
		name := "table=on"
		if noTable {
			name = "table=off"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := gadget.Extract(bin, gadget.Options{Parallelism: 1, NoPredecode: noTable})
				if pool.Size() == 0 {
					b.Fatal("empty pool")
				}
			}
		})
	}
}

// BenchmarkSymexPaths measures symbolic execution over every pooled gadget
// path, comparing the one-shot Exec (fresh state per path) against the
// reusable Executor the extraction shards use.
func BenchmarkSymexPaths(b *testing.B) {
	bin := benchBinary(b)
	pool := gadget.Extract(bin, gadget.Options{Parallelism: 1})
	paths := make([][]symex.Step, len(pool.Gadgets))
	for i, g := range pool.Gadgets {
		paths[i] = g.Steps
	}

	b.Run("exec", func(b *testing.B) {
		b.ReportAllocs()
		eb := expr.NewBuilder()
		for i := 0; i < b.N; i++ {
			for _, steps := range paths {
				if _, err := symex.Exec(eb, steps); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("executor", func(b *testing.B) {
		b.ReportAllocs()
		ex := symex.NewExecutor(expr.NewBuilder())
		for i := 0; i < b.N; i++ {
			for _, steps := range paths {
				if _, err := ex.Exec(steps); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCount measures the classic syntactic scan (predecode plus the
// per-offset chain walk) on Tigress-obfuscated netperf-sim. The scan reads
// the table by reference, so allocations per op are the table build's.
func BenchmarkCount(b *testing.B) {
	bin := tigressNetperf(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if gadget.TotalCount(gadget.Count(bin, 10)) == 0 {
			b.Fatal("empty count")
		}
	}
}
