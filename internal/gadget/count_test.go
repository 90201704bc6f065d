package gadget_test

import (
	"runtime"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// tigressNetperf builds netperf-sim under the Tigress-style preset, whose
// virtualization makes a large text (about 250 KB) for the count scan.
func tigressNetperf(tb testing.TB) *sbf.Binary {
	tb.Helper()
	bin, err := benchprog.Build(benchprog.Netperf(), obfuscate.Tigress(), 42)
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

// TestCountAllocs pins CountISA's scan at a constant allocation count: it
// walks the predecode table by reference, so the instructions it visits
// (hundreds of thousands on this build) cost nothing on the heap. The
// table build itself allocates a DecodeError per undecodable offset, which
// does scale with text size, so the bound is on CountISA's allocations
// beyond those of building the same table alone.
func TestCountAllocs(t *testing.T) {
	bin := tigressNetperf(t)
	par := runtime.GOMAXPROCS(0)
	table := testing.AllocsPerRun(3, func() {
		gadget.PredecodeISA(bin, par, isa.X64)
	})
	count := testing.AllocsPerRun(3, func() {
		gadget.CountISA(bin, 10, isa.X64)
	})
	if scan := count - table; scan > 16 {
		t.Errorf("CountISA allocates %.0f objects beyond its predecode table (%.0f vs %.0f); want <= 16",
			scan, count, table)
	}
}
