package planner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// searchGolden pins the full search output — every accepted plan's steps,
// ordering, links, open requirements and demands, plus the search counters
// — for pools the x64 determinism test does not reach: two rv64c LLVM-Obf
// programs (the build kind behind the deepest searches of served planning,
// small enough to search in a test) and the Tigress netperf-sim build.
// Signature() ignores ordering, so unlike TestFindAllDeterminism this
// catches any change to how threats are resolved. Keys are
// program/obf/isa/goal; values are sha256 hex digests.
var searchGolden = map[string]string{
	"queens/llvm/rv64c/execve":       "afeddf9be5b0f4da26029259b7042c98823363ad4830a00ff900689691b1ef91",
	"queens/llvm/rv64c/mprotect":     "9ab55f5ecae5aedd96db8a6a35bcd0b2acdd0e87a9f3e69f5ca07a1343c6b46c",
	"queens/llvm/rv64c/mmap":         "ead6d9641582d550abfcc4775eaf63c2e6ba69b0c51dcdad3bfcff706f399801",
	"bubblesort/llvm/rv64c/execve":   "dc20f610e94544a0f127502ad3d9d9abf5b17f18814da6160de664c921392c6d",
	"bubblesort/llvm/rv64c/mprotect": "6ccfb4631b24dc37a341e523ccb3c1e4d1cc56b4df38cd9887c9799973b6b58c",
	"bubblesort/llvm/rv64c/mmap":     "5bab168dd5b75bb88c35523f04cad099ff78018e9a0b2feb3077098e284c4041",
	"netperf/tigress/x64/execve":     "3d757c793c7ea4c71c330be39717e68972c7a436aa6a7a4cd3e5e9da24971b7c",
	"netperf/tigress/x64/mprotect":   "dd4de3a6e812742783057b290ddf3da1cbb2105f550c7ead0473e0242b9b2bd0",
	"netperf/tigress/x64/mmap":       "869894ed72a6731a94992755451ca3e4116bd0c444510ba7eadc275aa26e1165",
}

var goldenTargets = []struct{ program, obf, isa string }{
	{"queens", "llvm", "rv64c"},
	{"bubblesort", "llvm", "rv64c"},
	{"netperf", "tigress", "x64"},
}

// attackDigest hashes one goal's accepted plans, search counters and
// payload bytes.
func attackDigest(atk *core.Attack) string {
	h := sha256.New()
	s := atk.Search
	fmt.Fprintf(h, "expanded=%d generated=%d rejected=%d batches=%d hits=%d misses=%d timedout=%t truncated=%d\n",
		s.Expanded, s.Generated, s.Rejected, s.Batches, s.CacheHits, s.CacheMisses, s.TimedOut, s.TruncatedSeeds)
	for _, p := range atk.Plans {
		writePlan(h, p)
	}
	for _, pl := range atk.Payloads {
		fmt.Fprintf(h, "payload %x\n", pl.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writePlan(h hash.Hash, p *planner.Plan) {
	fmt.Fprintf(h, "plan goal=%d\n steps", p.GoalStep())
	for _, st := range p.Steps {
		if st.G == nil {
			fmt.Fprintf(h, " %d:start", st.ID)
			continue
		}
		fmt.Fprintf(h, " %d:%d@%#x", st.ID, st.G.ID, st.G.Location)
	}
	fmt.Fprintf(h, "\n order %v\n links", p.Order)
	for _, l := range p.Links {
		fmt.Fprintf(h, " %d->%d:%s=%s", l.Producer, l.Consumer, l.Reg, l.Spec)
	}
	fmt.Fprint(h, "\n open")
	for _, r := range p.Open {
		fmt.Fprintf(h, " %d:%s=%s", r.Step, r.Reg, r.Spec)
	}
	fmt.Fprint(h, "\n demands")
	for _, d := range p.Demands {
		fmt.Fprintf(h, " %d:%s=%s", d.Step, d.Expr, d.Spec)
	}
	fmt.Fprintln(h)
}

// TestSearchGolden checks the pinned digests at two and eight expansion
// workers, so the race detector sees concurrent expansion. The timeout is
// far above any search here, so the node budget alone bounds each search
// and results never depend on the clock.
func TestSearchGolden(t *testing.T) {
	for _, tg := range goldenTargets {
		prog, ok := benchprog.ByName(tg.program)
		if !ok {
			t.Fatalf("unknown program %q", tg.program)
		}
		passes, err := obfuscate.ParseSpec(tg.obf)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := benchprog.BuildISA(prog, passes, 0, tg.isa)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			cfg := core.Config{Parallelism: par}
			cfg.Planner.Timeout = 10 * time.Minute
			attacks := core.Analyze(bin, cfg).FindAll()
			for _, goal := range planner.GoalsForISA(tg.isa) {
				name := fmt.Sprintf("%s/%s/%s/%s", tg.program, tg.obf, tg.isa, goal.Name)
				if got, want := attackDigest(attacks[goal.Name]), searchGolden[name]; got != want {
					t.Errorf("P=%d %s: digest %s, want %s (%s)", par, name, got, want,
						attacks[goal.Name].Search.StatsLine())
				}
			}
		}
	}
}
