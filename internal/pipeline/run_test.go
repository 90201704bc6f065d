package pipeline

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// TestRunKeyCoversInputs: a replay key changes whenever anything that can
// change the emulator's output changes — the binary's bytes, its ISA tag,
// stdin, or the step cap — and a zero cap reads as the default cap.
func TestRunKeyCoversInputs(t *testing.T) {
	mkBin := func(isaName string, code byte) *sbf.Binary {
		b := sbf.New()
		b.ISA = isaName
		b.Entry = 0x1000
		b.AddSection(sbf.Section{Name: ".text", Addr: 0x1000, Flags: sbf.FlagRead | sbf.FlagExec, Data: []byte{code, 0xC3}})
		return b
	}
	s := NewStore()
	stdin := []byte("in")
	base := RunKey(s.BinaryKey(mkBin("", 0x90)), stdin, 1000)
	for name, k := range map[string]string{
		"code byte": RunKey(s.BinaryKey(mkBin("", 0x91)), stdin, 1000),
		"isa tag":   RunKey(s.BinaryKey(mkBin("rv64", 0x90)), stdin, 1000),
		"stdin":     RunKey(s.BinaryKey(mkBin("", 0x90)), []byte("in2"), 1000),
		"no stdin":  RunKey(s.BinaryKey(mkBin("", 0x90)), nil, 1000),
		"step cap":  RunKey(s.BinaryKey(mkBin("", 0x90)), stdin, 1001),
	} {
		if k == base {
			t.Errorf("changing the %s left the run key at %q", name, k)
		}
	}
	if k := RunKey(s.BinaryKey(mkBin("", 0x90)), stdin, 1000); k != base {
		t.Errorf("equal inputs keyed differently: %q vs %q", k, base)
	}
	if RunKey("bin:0", nil, 0) != RunKey("bin:0", nil, codegen.DefaultMaxSteps) {
		t.Error("a zero step cap did not key as the default cap")
	}
}

// TestRunCtxDiskTier: a replay computed into a disk-backed store is served
// by a fresh store over the same directory without emulating, and a
// truncated artifact file degrades to a recompute.
func TestRunCtxDiskTier(t *testing.T) {
	dir := t.TempDir()
	p := benchprog.Benchmarks()[0]
	open := func() *Store {
		d, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return NewStore().WithDisk(d)
	}
	s1 := open()
	bin, err := Build(s1, p, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, info, err := RunCtx(context.Background(), s1, bin, p.Stdin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || want.Stdout == "" || want.Steps == 0 {
		t.Fatalf("cold replay: hit=%v result=%+v", info.Hit, want)
	}

	s2 := open()
	got, info, err := RunCtx(context.Background(), s2, bin, p.Stdin, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()[StageRun]
	if !info.Hit || st.Misses != 0 || st.DiskHits != 1 {
		t.Errorf("warm replay: hit=%v misses=%d disk hits=%d, want a disk hit", info.Hit, st.Misses, st.DiskHits)
	}
	if *got != *want {
		t.Errorf("disk-served replay %+v, want %+v", *got, *want)
	}

	path := s1.Disk().path(StageRun, RunKey(s1.BinaryKey(bin), p.Stdin, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := open()
	got, info, err = RunCtx(context.Background(), s3, bin, p.Stdin, 0)
	if err != nil {
		t.Fatalf("truncated artifact surfaced as error: %v", err)
	}
	if info.Hit || s3.Stats()[StageRun].Misses != 1 || *got != *want {
		t.Errorf("truncated artifact: hit=%v result=%+v, want a recompute of %+v", info.Hit, *got, *want)
	}
}

// TestRunStepCapIsMemoryOnlyError: a replay that hits the step cap is an
// error artifact — shared in memory, never persisted.
func TestRunStepCapIsMemoryOnlyError(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore().WithDisk(d)
	p := benchprog.Benchmarks()[0]
	bin, err := Build(s, p, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	written := d.Stats().BytesWritten
	for i := 0; i < 2; i++ {
		if _, _, err := RunCtx(context.Background(), s, bin, p.Stdin, 10); err == nil {
			t.Fatal("a 10-step replay did not hit the step cap")
		}
	}
	if st := s.Stats()[StageRun]; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("capped replay hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if d.Stats().BytesWritten != written {
		t.Error("a capped replay reached the disk tier")
	}
}

// TestPanickingStageIsErrorArtifact: a stage computation that panics
// becomes an error for its winner and every joiner, later requests get the
// same error without recomputing, and nothing reaches the disk tier.
func TestPanickingStageIsErrorArtifact(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore().WithDisk(d).WithGate(NewGate(1, nil))
	const key = "panic-key"
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (*codegen.RunResult, error) {
		close(started)
		<-release
		panic("injected stage failure")
	}

	const joiners = 4
	errs := make([]error, joiners+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = Do(s, StageRun, key, compute)
	}()
	<-started
	for i := 1; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = Do(s, StageRun, key, func() (*codegen.RunResult, error) {
				t.Error("a joiner recomputed an in-flight key")
				return nil, nil
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the joiners block on the key
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "injected stage failure") {
			t.Errorf("requester %d: err = %v, want the recovered panic", i, err)
		}
	}

	v, _, err := Do(s, StageRun, key, func() (*codegen.RunResult, error) {
		t.Error("a later request recomputed the panicked key")
		return &codegen.RunResult{}, nil
	})
	if v != nil || err == nil {
		t.Errorf("later request = %v, %v; want the cached error", v, err)
	}
	// The gate slot the panicking computation held was released.
	next := make(chan error, 1)
	go func() {
		_, _, err := Do(s, StageRun, "other-key", func() (*codegen.RunResult, error) {
			return &codegen.RunResult{Stdout: "ok"}, nil
		})
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the panicking computation leaked its gate slot")
	}
	if _, err := os.Stat(d.path(StageRun, key)); !os.IsNotExist(err) {
		t.Errorf("panicked artifact reached the disk tier (stat err %v)", err)
	}

	// The uncached path recovers the same way.
	if _, _, err := Do(nil, StageRun, "", func() (int, error) { panic("direct") }); err == nil {
		t.Error("a panicking direct computation returned no error")
	}
}
