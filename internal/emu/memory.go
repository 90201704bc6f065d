// Package emu implements a concrete x86-64 emulator for the isa subset.
// It executes SBF binaries, enforces page permissions, and exposes syscall
// hooks, which lets generated code-reuse payloads be validated end-to-end:
// inject the payload, run the victim, observe the execve.
package emu

import (
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// PageSize is the emulator's memory page granularity.
const PageSize = 4096

// Perm is a page permission bitmask (same bit meanings as sbf.SectionFlags).
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// MemFault describes an invalid memory access.
type MemFault struct {
	Addr uint64
	Op   string // "read", "write", "exec"
}

func (e *MemFault) Error() string {
	return fmt.Sprintf("emu: %s fault at %#x", e.Op, e.Addr)
}

type page struct {
	data [PageSize]byte
	perm Perm
}

// Memory is a sparse, paged address space.
type Memory struct {
	pages map[uint64]*page

	// One-entry page cache: the interpreter's memory traffic is heavily
	// concentrated (current stack page, current code page).
	lastNum uint64
	last    *page

	// gen advances on every change that can alter what an instruction
	// fetch returns: a write to an executable page (self-modifying code)
	// and every permission change (Map, Protect, a page-creating
	// WriteBytesForce). Decoded-instruction caches record the generation
	// an entry was decoded and exec-checked at, and trust it only while
	// the generation is unchanged. It starts at 1, so a zero entry never
	// matches.
	gen uint64
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page), gen: 1}
}

// Map creates (or re-permissions) pages covering [addr, addr+size).
func (m *Memory) Map(addr, size uint64, perm Perm) {
	m.gen++
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	for p := first; p < last; p++ {
		pg, ok := m.pages[p]
		if !ok {
			pg = &page{}
			m.pages[p] = pg
		}
		pg.perm = perm
	}
}

// Protect changes permissions on pages covering [addr, addr+size) that are
// already mapped. It reports whether every page in the range was mapped.
func (m *Memory) Protect(addr, size uint64, perm Perm) bool {
	m.gen++
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	ok := true
	for p := first; p < last; p++ {
		pg, mapped := m.pages[p]
		if !mapped {
			ok = false
			continue
		}
		pg.perm = perm
	}
	return ok
}

// PermAt returns the permissions of the page containing addr.
func (m *Memory) PermAt(addr uint64) Perm {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return 0
	}
	return pg.perm
}

func (m *Memory) pageFor(addr uint64, need Perm, op string) (*page, error) {
	num := addr / PageSize
	pg := m.last
	if pg == nil || m.lastNum != num {
		var ok bool
		pg, ok = m.pages[num]
		if !ok {
			return nil, &MemFault{Addr: addr, Op: op}
		}
		m.lastNum, m.last = num, pg
	}
	if pg.perm&need != need {
		return nil, &MemFault{Addr: addr, Op: op}
	}
	return pg, nil
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		pg, err := m.pageFor(addr+uint64(i), PermRead, "read")
		if err != nil {
			return nil, err
		}
		off := int((addr + uint64(i)) % PageSize)
		c := copy(out[i:], pg.data[off:])
		i += c
	}
	return out, nil
}

// WriteBytes stores data starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) error {
	for i := 0; i < len(data); {
		pg, err := m.pageFor(addr+uint64(i), PermWrite, "write")
		if err != nil {
			return err
		}
		if pg.perm&PermExec != 0 {
			m.gen++
		}
		off := int((addr + uint64(i)) % PageSize)
		c := copy(pg.data[off:], data[i:])
		i += c
	}
	return nil
}

// WriteBytesForce stores data ignoring page permissions, mapping pages as
// needed. Used by loaders and by the exploit harness to model a memory-write
// vulnerability primitive.
func (m *Memory) WriteBytesForce(addr uint64, data []byte, perm Perm) {
	for i := 0; i < len(data); {
		pnum := (addr + uint64(i)) / PageSize
		pg, ok := m.pages[pnum]
		if !ok {
			pg = &page{perm: perm}
			m.pages[pnum] = pg
			m.gen++
		}
		if pg.perm&PermExec != 0 {
			m.gen++
		}
		off := int((addr + uint64(i)) % PageSize)
		c := copy(pg.data[off:], data[i:])
		i += c
	}
}

// Read reads a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Read(addr uint64, size int) (uint64, error) {
	off := int(addr % PageSize)
	if off+size <= PageSize {
		// Fast path: the access stays inside one page.
		pg, err := m.pageFor(addr, PermRead, "read")
		if err != nil {
			return 0, err
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(pg.data[off+i])
		}
		return v, nil
	}
	b, err := m.ReadBytes(addr, size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// Write stores a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Write(addr uint64, v uint64, size int) error {
	off := int(addr % PageSize)
	if off+size <= PageSize {
		pg, err := m.pageFor(addr, PermWrite, "write")
		if err != nil {
			return err
		}
		if pg.perm&PermExec != 0 {
			m.gen++
		}
		for i := 0; i < size; i++ {
			pg.data[off+i] = byte(v >> (8 * i))
		}
		return nil
	}
	b := make([]byte, size)
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return m.WriteBytes(addr, b)
}

// FetchWindow returns up to n readable+executable bytes at addr for the
// instruction decoder.
func (m *Memory) FetchWindow(addr uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		pg, err := m.pageFor(addr+uint64(i), PermExec, "exec")
		if err != nil {
			if i == 0 {
				return nil, err
			}
			break
		}
		out = append(out, pg.data[(addr+uint64(i))%PageSize])
	}
	return out, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.ReadBytes(addr+uint64(i), 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return string(out), nil
}

// LoadBinary maps every section of an SBF image into memory.
func (m *Memory) LoadBinary(b *sbf.Binary) {
	for _, s := range b.Sections {
		perm := Perm(0)
		if s.Flags&sbf.FlagRead != 0 {
			perm |= PermRead
		}
		if s.Flags&sbf.FlagWrite != 0 {
			perm |= PermWrite
		}
		if s.Flags&sbf.FlagExec != 0 {
			perm |= PermExec
		}
		m.Map(s.Addr, uint64(len(s.Data)), perm)
		m.WriteBytesForce(s.Addr, s.Data, perm)
	}
}
