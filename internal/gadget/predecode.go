package gadget

import (
	"sync"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/wall"
)

// instSource resolves the instruction decoded at a virtual address, or
// reports that no executable section covers it / the bytes there do not
// decode. It is the walker's only view of the binary: the predecode Table
// serves lookups from a shared read-only array, while the legacy fetcher
// (Options.NoPredecode, the benchmark A/B arm and the equivalence tests'
// reference) re-invokes isa.Decode on every call.
//
// The pointer return avoids copying the 88-byte Inst per lookup (the walk
// touches one per step per path, and duffcopy dominated the profile); walk
// steps keep the pointer itself. The table returns a pointer into its
// shared array; the fetcher returns a freshly allocated Inst per call.
// Either way the pointee is read-only and stays valid for as long as the
// caller holds it.
type instSource interface {
	inst(addr uint64) (*isa.Inst, bool)
}

// Table is the per-section predecode table: one isa.Inst per byte offset of
// every executable section, decoded in a single O(n) pass and shared
// read-only by all scan workers. The walk, the fork/merge path enumeration,
// and Count then chain through the table by addr + inst.Len instead of
// re-invoking isa.Decode at every path step from every start offset — the
// extraction decode cost drops from O(n · pathLen) to O(n), and instruction
// suffixes shared between overlapping start offsets are decoded exactly
// once.
//
// Entries are stored as a flat []isa.Inst per section, indexed by byte
// offset; an entry with Len == 0 marks an offset whose bytes do not decode
// (every valid decode consumes at least one byte). Entry contents are a
// pure function of the section bytes, so the table — and everything walked
// through it — is deterministic regardless of how many workers built it.
//
// Memory: one Inst (88 bytes) per code byte. The corpus binaries measure
// their code in tens to hundreds of KiB, so a table is a few MiB at most
// and lives only for the duration of one extraction or count.
type Table struct {
	secs  []*sbf.Section // ascending by Addr (sbf keeps sections sorted)
	insts [][]isa.Inst   // insts[i][off] decodes secs[i].Data[off:]; Len==0 invalid

	// Single-section fast path: nearly every corpus binary has exactly one
	// executable section, and inst() is the hottest call in extraction.
	soloAddr, soloEnd uint64
	solo              []isa.Inst // nil when the binary has several sections
}

// predecodeChunk is how many byte offsets one predecode job covers. Like
// chunkStrides, it is fixed so the work partition never depends on the
// worker count; unlike the scan shards, entries are independent, so the
// only requirement is a chunk big enough to amortize dispatch.
const predecodeChunk = 64 << 10

// Predecode decodes every byte offset of bin's executable sections into a
// Table using the default x64 backend, fanning the (embarrassingly parallel)
// decode work across at most parallelism workers (<=1 means serial). The
// build is accounted to the "decode" wall bucket.
func Predecode(bin *sbf.Binary, parallelism int) *Table {
	return PredecodeISA(bin, parallelism, isa.X64)
}

// PredecodeISA is Predecode against a specific backend. Offsets the backend
// refuses to decode — including misaligned ones on fixed-stride ISAs — keep
// Len == 0 entries, so walks chained through the table stop exactly where a
// direct decode would.
func PredecodeISA(bin *sbf.Binary, parallelism int, be isa.Backend) *Table {
	defer wall.Track("decode")()
	t := &Table{secs: bin.ExecSections()}
	t.insts = make([][]isa.Inst, len(t.secs))

	type job struct {
		si     int
		lo, hi int
	}
	var jobs []job
	for i, sec := range t.secs {
		t.insts[i] = make([]isa.Inst, len(sec.Data))
		for lo := 0; lo < len(sec.Data); lo += predecodeChunk {
			hi := min(lo+predecodeChunk, len(sec.Data))
			jobs = append(jobs, job{si: i, lo: lo, hi: hi})
		}
	}

	decodeRange := func(j job) {
		sec, insts := t.secs[j.si], t.insts[j.si]
		for off := j.lo; off < j.hi; off++ {
			in, err := be.Decode(sec.Data[off:], sec.Addr+uint64(off))
			if err == nil {
				insts[off] = in
			}
		}
	}

	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	if parallelism <= 1 {
		for _, j := range jobs {
			decodeRange(j)
		}
		return t.finish()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				decodeRange(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return t.finish()
}

// finish installs the single-section fast path.
func (t *Table) finish() *Table {
	if len(t.secs) == 1 {
		t.soloAddr, t.soloEnd = t.secs[0].Addr, t.secs[0].End()
		t.solo = t.insts[0]
	}
	return t
}

// inst returns the predecoded instruction at addr. Addresses outside every
// executable section, and offsets whose bytes do not decode, report false —
// exactly the cases where the legacy fetch-and-decode walk would stop.
func (t *Table) inst(addr uint64) (*isa.Inst, bool) {
	if t.solo != nil {
		if addr < t.soloAddr || addr >= t.soloEnd {
			return nil, false
		}
		in := &t.solo[addr-t.soloAddr]
		if in.Len == 0 {
			return nil, false
		}
		return in, true
	}
	// Sections are sorted by address: binary-search (hand-rolled — a
	// sort.Search closure costs more than the search on a hot path this
	// tight) for the first section ending past addr, then confirm it covers
	// addr. This replaces the fetcher's per-instruction linear scan.
	lo, hi := 0, len(t.secs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if addr >= t.secs[mid].End() {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.secs) || addr < t.secs[lo].Addr {
		return nil, false
	}
	in := &t.insts[lo][addr-t.secs[lo].Addr]
	if in.Len == 0 {
		return nil, false
	}
	return in, true
}

// InstAt exposes table lookups for tests and the fuzz target pinning table
// entries against direct isa.Decode calls.
func (t *Table) InstAt(addr uint64) (isa.Inst, bool) {
	in, ok := t.inst(addr)
	if !ok {
		return isa.Inst{}, false
	}
	return *in, true
}

// inst implements instSource on the legacy fetcher: resolve the section
// slice, then decode into a fresh Inst, since walk steps hold the pointer.
// This is the reference path the predecode table is pinned byte-identical
// against, and the NoPredecode benchmark arm; its speed does not matter.
func (f *fetcher) inst(addr uint64) (*isa.Inst, bool) {
	code := f.at(addr)
	if code == nil {
		return nil, false
	}
	in, err := f.be.Decode(code, addr)
	if err != nil {
		return nil, false
	}
	return &in, true
}
