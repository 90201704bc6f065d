package pipeline

import (
	"bytes"
	"context"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// testPool extracts a real (obfuscated, so reasonably rich) gadget pool.
func testPool(t *testing.T) *gadget.Pool {
	t.Helper()
	s := NewStore()
	bin, err := Build(s, benchprog.Benchmarks()[0], obfuscate.LLVMObf(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return Extract(s, bin, gadget.Options{})
}

// TestPoolCodecRoundTrip pins the codec's two load-bearing properties on a
// real extracted pool: encoding is deterministic, and decode∘encode is the
// identity up to re-encoding — the decoded pool serializes to the exact
// bytes of the original, so its content (gadget records, effect DAGs,
// indexes, stats) is structurally indistinguishable from the computed
// pool's.
func TestPoolCodecRoundTrip(t *testing.T) {
	pool := testPool(t)
	if pool.Size() == 0 {
		t.Fatal("empty test pool")
	}

	enc1, ok := encodeArtifact(StageExtract, pool)
	if !ok {
		t.Fatal("pool did not encode")
	}
	enc1again, _ := encodeArtifact(StageExtract, pool)
	if !bytes.Equal(enc1, enc1again) {
		t.Fatal("pool encoding is not deterministic")
	}

	v, err := decodeArtifact(StageExtract, enc1)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*gadget.Pool)

	if got.Size() != pool.Size() {
		t.Fatalf("decoded pool size %d, want %d", got.Size(), pool.Size())
	}
	if len(got.Syscalls) != len(pool.Syscalls) || len(got.ByReg) != len(pool.ByReg) {
		t.Errorf("decoded indexes: %d syscalls/%d regs, want %d/%d",
			len(got.Syscalls), len(got.ByReg), len(pool.Syscalls), len(pool.ByReg))
	}
	for i, g := range pool.Gadgets {
		d := got.Gadgets[i]
		if d.ID != g.ID || d.Location != g.Location || d.Len != g.Len ||
			d.JmpType != g.JmpType || d.Merged != g.Merged || d.HasCond != g.HasCond {
			t.Fatalf("gadget %d record differs: %+v vs %+v", i, d, g)
		}
		if len(d.Steps) != len(g.Steps) {
			t.Fatalf("gadget %d: %d steps, want %d", i, len(d.Steps), len(g.Steps))
		}
		for j := range g.Steps {
			if d.Steps[j] != g.Steps[j] {
				t.Fatalf("gadget %d step %d differs", i, j)
			}
		}
		if d.Effect.End != g.Effect.End || d.Effect.StackDelta != g.Effect.StackDelta {
			t.Fatalf("gadget %d effect shape differs", i)
		}
		for r := range g.Effect.Regs {
			if d.Effect.Regs[r].String() != g.Effect.Regs[r].String() {
				t.Fatalf("gadget %d reg %d effect differs:\n%s\nvs\n%s",
					i, r, d.Effect.Regs[r], g.Effect.Regs[r])
			}
		}
	}
	// Stats contains a map, so compare field-wise.
	if got.Stats.ScannedOffsets != pool.Stats.ScannedOffsets ||
		got.Stats.Supported != pool.Stats.Supported ||
		len(got.Stats.ByType) != len(pool.Stats.ByType) {
		t.Errorf("decoded stats %+v, want %+v", got.Stats, pool.Stats)
	}
	for k, n := range pool.Stats.ByType {
		if got.Stats.ByType[k] != n {
			t.Errorf("ByType[%v] = %d, want %d", k, got.Stats.ByType[k], n)
		}
	}

	enc2, ok := encodeArtifact(StageExtract, got)
	if !ok {
		t.Fatal("decoded pool did not re-encode")
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("re-encoded decoded pool differs from original encoding")
	}
}

func TestMinimizedCodecRoundTrip(t *testing.T) {
	pool := testPool(t)
	min, stats := subsume.Minimize(pool, subsume.Options{})
	art := Minimized{Pool: min, Stats: stats}

	enc1, ok := encodeArtifact(StageMinimize, art)
	if !ok {
		t.Fatal("minimized artifact did not encode")
	}
	v, err := decodeArtifact(StageMinimize, enc1)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(Minimized)
	if got.Stats != stats {
		t.Errorf("decoded subsume stats %+v, want %+v", got.Stats, stats)
	}
	if got.Pool.Size() != min.Size() {
		t.Errorf("decoded minimized pool size %d, want %d", got.Pool.Size(), min.Size())
	}
	enc2, _ := encodeArtifact(StageMinimize, got)
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("re-encoded minimized artifact differs")
	}
}

func TestBinaryAndCountCodecRoundTrip(t *testing.T) {
	s := NewStore()
	bin, err := Build(s, benchprog.Benchmarks()[0], nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	enc1, ok := encodeArtifact(StageBuild, bin)
	if !ok {
		t.Fatal("binary did not encode")
	}
	v, err := decodeArtifact(StageBuild, enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.(*sbf.Binary).Marshal(), bin.Marshal()) {
		t.Fatal("decoded binary differs")
	}

	counts := Count(s, bin, 10)
	cenc, ok := encodeArtifact(StageCount, counts)
	if !ok {
		t.Fatal("count map did not encode")
	}
	cv, err := decodeArtifact(StageCount, cenc)
	if err != nil {
		t.Fatal(err)
	}
	gotCounts := cv.(map[gadget.JmpType]int)
	if len(gotCounts) != len(counts) {
		t.Fatalf("decoded %d count classes, want %d", len(gotCounts), len(counts))
	}
	for k, n := range counts {
		if gotCounts[k] != n {
			t.Errorf("count[%v] = %d, want %d", k, gotCounts[k], n)
		}
	}
}

func TestRunCodecRoundTrip(t *testing.T) {
	s := NewStore()
	p := benchprog.Benchmarks()[0]
	bin, err := Build(s, p, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunCtx(context.Background(), s, bin, p.Stdin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*codegen.RunResult{res, {}} {
		enc1, ok := encodeArtifact(StageRun, r)
		if !ok {
			t.Fatal("run result did not encode")
		}
		v, err := decodeArtifact(StageRun, enc1)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(*codegen.RunResult); *got != *r {
			t.Errorf("decoded run result %+v, want %+v", *got, *r)
		}
		enc2, _ := encodeArtifact(StageRun, v)
		if !bytes.Equal(enc1, enc2) {
			t.Error("re-encoded run result differs")
		}
		if len(enc1) > 0 {
			if _, err := decodeArtifact(StageRun, enc1[:len(enc1)-1]); err == nil {
				t.Error("truncated run result decoded")
			}
		}
	}
}

// TestDecodeArtifactRejectsGarbage: decoding never panics and never
// half-succeeds — malformed bytes are an error (which the disk tier turns
// into a miss).
func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	pool := testPool(t)
	enc, _ := encodeArtifact(StageExtract, pool)
	for _, data := range [][]byte{
		nil,
		{},
		{0xff, 0xff, 0xff},
		enc[:len(enc)/2], // truncated
	} {
		for _, st := range []Stage{StageBuild, StageCount, StageExtract, StageMinimize, StagePlan, StageRun} {
			if _, err := decodeArtifact(st, data); err == nil && len(data) > 0 {
				// Empty inputs can legitimately decode to empty
				// collections for some stages; anything else must fail.
				t.Errorf("stage %s decoded %d garbage bytes", st, len(data))
			}
		}
	}
	// Trailing junk after a valid artifact is corruption, not slack.
	if _, err := decodeArtifact(StageExtract, append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
