package gadget

import (
	"testing"
	"unsafe"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
)

// TestPoolDoesNotRetainTable checks that an extracted pool owns copies of
// its gadgets' instructions. Walk steps point into the instruction source,
// so a pool whose steps still pointed there would keep the multi-MB
// predecode table alive. On both the table and the NoPredecode arm, no
// step may point into the table's backing arrays, and each gadget's steps
// must point into one contiguous backing array of their own.
func TestPoolDoesNotRetainTable(t *testing.T) {
	bin, err := benchprog.Build(benchprog.Netperf(), obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 2}.withDefaults()
	tab := PredecodeISA(bin, opts.Parallelism, opts.backend())
	const instSize = unsafe.Sizeof(isa.Inst{})
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, insts := range tab.insts {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(insts)))
		spans = append(spans, span{lo, lo + uintptr(len(insts))*instSize})
	}

	for _, arm := range []struct {
		name string
		src  instSource
	}{
		{"table", tab},
		{"nopredecode", newFetcher(bin, opts.backend())},
	} {
		pool := extractFrom(bin, opts, arm.src)
		if pool.Size() == 0 {
			t.Fatalf("%s: empty pool", arm.name)
		}
		for _, g := range pool.Gadgets {
			base := uintptr(unsafe.Pointer(g.Steps[0].Inst))
			for i, st := range g.Steps {
				p := uintptr(unsafe.Pointer(st.Inst))
				for _, s := range spans {
					if p >= s.lo && p < s.hi {
						t.Fatalf("%s: gadget %#x step %d points into the predecode table", arm.name, g.Location, i)
					}
				}
				if p != base+uintptr(i)*instSize {
					t.Fatalf("%s: gadget %#x step %d is not in the gadget's backing array", arm.name, g.Location, i)
				}
			}
		}
	}
}
