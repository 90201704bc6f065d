// Package pipeline is the staged analysis pipeline's content-addressed
// artifact store. The paper's workflow is a fixed chain — Compile →
// Obfuscate/Encode → Extract → Minimize → Plan — and every experiment cell,
// bench, and CLI walks some prefix of it over a (program × obfuscation ×
// seed) matrix. Each stage's output is an immutable artifact keyed by a
// canonical fingerprint of everything that determines it (source hash,
// ordered pass names, seed, stage options); cells that request the same
// prefix compute it exactly once, concurrently deduplicated, and share the
// result.
//
// Sharing is sound because every stage is a deterministic, parallelism-
// invariant function of its fingerprinted inputs (the determinism suites in
// core, subsume, and planner pin this down), and because artifacts are
// immutable by contract: consumers that need to mutate downstream state —
// payload concretization interns fresh expression nodes — clone first
// (gadget.ClonePool), exactly as the non-cached pipeline already did.
// Worker counts are therefore excluded from fingerprints, and a cached
// table cell is byte-identical to a recomputed one at any Parallelism.
package pipeline

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one pipeline stage for keying and accounting.
type Stage uint8

// The pipeline stages, in chain order. StageEncode is the post-link
// self-modification transform; StageCount is the classic gadget scan
// (Fig. 1 / Table I), a side chain off the build artifact; StageRun is an
// emulator replay of a binary (the output-equivalence check), another side
// chain off the build artifact.
const (
	StageBuild Stage = iota
	StageEncode
	StageCount
	StageExtract
	StageMinimize
	StagePlan
	StageRun
	numStages
)

var stageNames = [numStages]string{
	"build", "encode", "count", "extract", "minimize", "plan", "run",
}

// String names the stage as it appears in stats and BENCH_CACHE.json.
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return fmt.Sprintf("stage(%d)", uint8(st))
}

// Store memoizes stage artifacts by key. It is safe for concurrent use;
// concurrent requests for one key compute it once (singleflight) and share
// the result. A nil *Store is valid everywhere and simply computes each
// stage directly — the pre-store pipeline behavior.
//
// A store may additionally be backed by a persistent tier (WithDisk): on a
// memory miss the artifact is decoded from disk if an earlier process
// persisted it, and fresh computations are serialized back. The disk tier
// is transparent — a decoded artifact is interchangeable with a computed
// one (see codec.go) — and purely best-effort: any disk failure degrades to
// a recompute.
type Store struct {
	caching  bool
	disk     *Disk
	gate     *Gate
	mu       sync.Mutex
	entries  map[string]*entry
	binKeys  sync.Map // *sbf.Binary -> string, memoized content hashes
	counters [numStages]stageCounter

	// maxEntries bounds the memory tier (0 = unbounded): completed
	// artifacts beyond the budget are dropped least-recently-used, so
	// long-running corpus sweeps release each cell's artifacts instead of
	// accumulating the whole matrix. With a disk tier attached, an evicted
	// artifact is usually re-served from disk rather than recomputed.
	maxEntries   int
	lru          *list.List // front = most recent; holds *entry
	memEvictions atomic.Int64
}

type stageCounter struct {
	hits       atomic.Int64
	misses     atomic.Int64
	diskHits   atomic.Int64
	diskMisses atomic.Int64
	computeNs  atomic.Int64
}

type entry struct {
	once    sync.Once
	val     any
	err     error
	compute time.Duration
	alloc   uint64

	// key and elem tie the entry to the LRU list of a bounded store; done
	// marks the computation finished — only done entries are evictable, so
	// waiters blocked in once.Do never lose their entry mid-flight.
	key  string
	elem *list.Element // guarded by Store.mu
	done atomic.Bool
}

// NewStore returns an empty caching store.
func NewStore() *Store {
	return &Store{caching: true, entries: make(map[string]*entry)}
}

// NewDisabledStore returns a store that never reuses artifacts (the
// -nocache A/B configuration). Every request recomputes, but per-stage miss
// and compute-time counters still accumulate, so cold-path stats stay
// comparable with the caching store's.
func NewDisabledStore() *Store {
	return &Store{}
}

// Caching reports whether the store reuses artifacts (false for nil and
// disabled stores).
func (s *Store) Caching() bool { return s != nil && s.caching }

// LimitMemory bounds the memory tier to maxEntries completed artifacts,
// evicting least-recently-used ones beyond the budget, and returns s for
// chaining. It is how streaming workloads keep peak memory flat in cell
// count: each cell's artifacts age out once its neighbors stop sharing
// them, and the disk tier (if attached) keeps serving evicted keys.
// A no-op on nil/disabled stores and for maxEntries <= 0.
func (s *Store) LimitMemory(maxEntries int) *Store {
	if s != nil && s.caching && maxEntries > 0 {
		s.mu.Lock()
		s.maxEntries = maxEntries
		if s.lru == nil {
			s.lru = list.New()
			for key, e := range s.entries {
				e.key = key
				e.elem = s.lru.PushFront(e)
			}
		}
		s.mu.Unlock()
	}
	return s
}

// MemEvictions reports how many completed artifacts the bounded memory
// tier has dropped. Nil-safe.
func (s *Store) MemEvictions() int64 {
	if s == nil {
		return 0
	}
	return s.memEvictions.Load()
}

// MemEntries reports the memory tier's current artifact count. Nil-safe.
func (s *Store) MemEntries() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// evictMem drops least-recently-used completed entries until the memory
// tier is back under budget. Callers hold s.mu. In-flight entries (done
// not yet set) are skipped: their waiters hold the *entry and must see the
// computation finish.
func (s *Store) evictMem() {
	if s.maxEntries <= 0 || s.lru == nil {
		return
	}
	for el := s.lru.Back(); el != nil && len(s.entries) > s.maxEntries; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.done.Load() {
			s.lru.Remove(el)
			delete(s.entries, e.key)
			s.memEvictions.Add(1)
		}
		el = prev
	}
}

// WithDisk attaches a persistent tier and returns s for chaining. It is a
// no-op on nil and disabled stores: -nocache means no reuse at all, so the
// disabled A/B arm never reads or writes the disk.
func (s *Store) WithDisk(d *Disk) *Store {
	if s != nil && s.caching {
		s.disk = d
	}
	return s
}

// WithGate attaches a per-stage compute gate (see Gate) and returns s for
// chaining. Unlike WithDisk it applies to disabled stores too: the -nocache
// A/B arm recomputes everything, but a server still needs its stage pools
// bounded. Nil-safe.
func (s *Store) WithGate(g *Gate) *Store {
	if s != nil {
		s.gate = g
	}
	return s
}

// Gate returns the attached compute gate, or nil. Nil-safe.
func (s *Store) Gate() *Gate {
	if s == nil {
		return nil
	}
	return s.gate
}

// Disk returns the attached persistent tier, or nil. Nil-safe.
func (s *Store) Disk() *Disk {
	if s == nil {
		return nil
	}
	return s.disk
}

// DiskStats snapshots the attached tier's counters (zero when none).
// Nil-safe.
func (s *Store) DiskStats() DiskStats { return s.Disk().Stats() }

// Info describes how one stage request was served.
type Info struct {
	// Hit reports the artifact came from the store.
	Hit bool
	// Compute is the artifact's compute cost — this call's, or on a hit
	// the recorded cost of the original computation.
	Compute time.Duration
	// AllocBytes is the heap allocated by the computation (the pipeline's
	// peak-memory proxy, as in core.StageTiming).
	AllocBytes uint64
}

// measured runs f under the same time/alloc accounting the pre-store
// pipeline used per stage. A panic in f becomes the stage's error, an
// ordinary error artifact: its key answers every later request with that
// error instead of re-panicking, and a gate slot held around f is still
// released.
func measured[T any](st Stage, f func() (T, error)) (v T, d time.Duration, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("pipeline: %s stage panicked: %v", st, r)
		}
		d = time.Since(start)
		runtime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
	}()
	v, err = f()
	return
}

// Do returns the stage artifact for key, computing it at most once per
// store. An empty key (or a nil store) bypasses memoization and computes
// directly — callers use that for inputs that cannot be fingerprinted,
// e.g. a closure-valued GadgetFilter. Errors are artifacts too: a failed
// (or panicking) computation is cached in memory and returned to every
// requester of the key; it is never persisted.
func Do[T any](s *Store, st Stage, key string, compute func() (T, error)) (T, Info, error) {
	return DoCtx(context.Background(), s, st, key, compute)
}

// DoCtx is Do with a cancellation boundary: a context canceled before the
// stage is entered returns ctx.Err() without computing or caching
// anything, so a dropped client or a shutting-down server skips every
// stage it has not yet started. Cancellation is deliberately
// stage-granular — once a computation is admitted it runs to completion,
// because its artifact is shared: the singleflight layer may have
// concurrent waiters for the same key, and a half-finished (or
// context-poisoned) artifact must never be cached. Context errors are
// therefore never stored as error artifacts.
func DoCtx[T any](ctx context.Context, s *Store, st Stage, key string, compute func() (T, error)) (T, Info, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, Info{}, err
	}
	if s == nil || !s.caching || key == "" {
		var gate *Gate
		if s != nil {
			gate = s.gate
		}
		gate.enter(st)
		v, d, alloc, err := measured(st, compute)
		gate.exit(st)
		if s != nil && key != "" {
			c := &s.counters[st]
			c.misses.Add(1)
			c.computeNs.Add(int64(d))
		}
		return v, Info{Compute: d, AllocBytes: alloc}, err
	}

	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &entry{key: key}
		s.entries[key] = e
		if s.lru != nil {
			e.elem = s.lru.PushFront(e)
		}
	} else if s.lru != nil && e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()

	const (
		servedMemory  = iota // once already done: in-memory hit
		servedDisk           // decoded from the persistent tier
		servedCompute        // computed now
	)
	served := servedMemory
	e.once.Do(func() {
		// The winner holds a stage slot for the whole disk-probe + compute
		// sequence; waiters for this key block in once.Do, not in the gate.
		s.gate.enter(st)
		defer s.gate.exit(st)
		c := &s.counters[st]
		if s.disk != nil {
			if payload, meta, ok := s.disk.get(st, key); ok {
				v, derr := decodeArtifact(st, payload)
				if tv, tok := v.(T); derr == nil && tok {
					// A disk hit reports the original computation's
					// persisted cost, like an in-memory hit reports the
					// recorded one.
					e.val, e.compute, e.alloc = tv, meta.compute, meta.alloc
					served = servedDisk
					c.diskHits.Add(1)
					return
				}
				s.disk.discard(st, key)
			}
			c.diskMisses.Add(1)
		}
		served = servedCompute
		var v T
		v, e.compute, e.alloc, e.err = measured(st, compute)
		e.val = v
		c.misses.Add(1)
		c.computeNs.Add(int64(e.compute))
		// Persist for future processes. Errors are memory-only artifacts:
		// they are never written to (or read from) disk.
		if s.disk != nil && e.err == nil {
			if payload, ok := encodeArtifact(st, e.val); ok {
				s.disk.put(st, key, payload, diskMeta{compute: e.compute, alloc: e.alloc})
			}
		}
	})
	if !e.done.Load() {
		e.done.Store(true)
	}
	if s.maxEntries > 0 {
		s.mu.Lock()
		s.evictMem()
		s.mu.Unlock()
	}
	if served == servedMemory {
		s.counters[st].hits.Add(1)
	}
	info := Info{Hit: served != servedCompute, Compute: e.compute, AllocBytes: e.alloc}
	if e.err != nil {
		var zero T
		return zero, info, e.err
	}
	return e.val.(T), info, nil
}

// StageStats is one stage's store counters (a BENCH_CACHE.json /
// BENCH_DISK.json row). DiskHits/DiskMisses count persistent-tier lookups
// on in-memory misses; they stay zero without an attached Disk.
type StageStats struct {
	Stage          string  `json:"stage"`
	Hits           int64   `json:"hits"`
	Misses         int64   `json:"misses"`
	DiskHits       int64   `json:"disk_hits,omitempty"`
	DiskMisses     int64   `json:"disk_misses,omitempty"`
	ComputeSeconds float64 `json:"compute_seconds"`
}

// DiskHitRate is the fraction of persistent-tier lookups that hit.
func (s StageStats) DiskHitRate() float64 {
	total := s.DiskHits + s.DiskMisses
	if total == 0 {
		return 0
	}
	return float64(s.DiskHits) / float64(total)
}

// HitRate is the fraction of requests served from the store.
func (s StageStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the per-stage counters in chain order. Nil-safe.
func (s *Store) Stats() []StageStats {
	if s == nil {
		return nil
	}
	out := make([]StageStats, numStages)
	for st := Stage(0); st < numStages; st++ {
		c := &s.counters[st]
		out[st] = StageStats{
			Stage:          st.String(),
			Hits:           c.hits.Load(),
			Misses:         c.misses.Load(),
			DiskHits:       c.diskHits.Load(),
			DiskMisses:     c.diskMisses.Load(),
			ComputeSeconds: time.Duration(c.computeNs.Load()).Seconds(),
		}
	}
	return out
}

// StatsLine renders the counters as one line for CLI stats output, in the
// style of subsume.Stats and planner.Result.StatsLine.
func (s *Store) StatsLine() string {
	if s == nil {
		return "store: disabled"
	}
	var sb strings.Builder
	sb.WriteString("store:")
	if !s.caching {
		sb.WriteString(" (nocache)")
	}
	traffic := false
	var diskHits, diskMisses int64
	for _, st := range s.Stats() {
		diskHits += st.DiskHits
		diskMisses += st.DiskMisses
		if st.Hits == 0 && st.Misses == 0 && st.DiskHits == 0 {
			continue
		}
		// A disk-served request is a store hit too: hits counts both tiers,
		// misses counts computations.
		traffic = true
		fmt.Fprintf(&sb, " %s=%d/%d", st.Stage, st.Hits+st.DiskHits, st.Misses)
	}
	if !traffic {
		sb.WriteString(" no requests")
	} else {
		sb.WriteString(" hit/miss")
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		fmt.Fprintf(&sb, "; disk: %d/%d hit/miss, %d evicted, %.1f/%.1f MB r/w",
			diskHits, diskMisses, ds.Evictions,
			float64(ds.BytesRead)/1e6, float64(ds.BytesWritten)/1e6)
	}
	if s.maxEntries > 0 {
		fmt.Fprintf(&sb, "; mem: %d/%d entries, %d evicted",
			s.MemEntries(), s.maxEntries, s.MemEvictions())
	}
	return sb.String()
}
