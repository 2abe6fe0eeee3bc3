// Package mem implements the simulated flat physical memory that guest
// programs (Swarm tasks, baseline threads) operate on, plus the paper's
// idealized task-aware allocator (§5, "Idealized memory allocation").
//
// Swarm uses eager versioning: speculative writes go to memory in place and
// old values are saved in undo logs (§4.3), so a single flat image is the
// architectural *and* speculative state. Caches (internal/cache) are timing
// and conflict-filter metadata only; data always lives here.
package mem

import "fmt"

// Word and line geometry. Guest addresses are byte addresses; all guest
// accesses are 8-byte words; conflict detection is at 64-byte lines (§4.4).
const (
	WordBytes = 8
	LineBytes = 64
	WordShift = 3
	LineShift = 6
	pageShift = 16 // 64 KB pages
	pageWords = 1 << (pageShift - WordShift)
)

// Line returns the cache-line address (line number) containing addr.
func Line(addr uint64) uint64 { return addr >> LineShift }

// WordAligned reports whether addr is 8-byte aligned.
func WordAligned(addr uint64) bool { return addr&(WordBytes-1) == 0 }

// Memory is a sparse, page-granular 64-bit word memory. The zero value is
// an empty memory; pages materialize (zero-filled) on first touch.
type Memory struct {
	pages map[uint64][]uint64
	// last page cache: avoids a map lookup on the common sequential pattern.
	lastPageNum  uint64
	lastPage     []uint64
	lastPageInit bool
}

// New returns an empty Memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64][]uint64)}
}

func (m *Memory) page(addr uint64) []uint64 {
	pn := addr >> pageShift
	if m.lastPageInit && pn == m.lastPageNum {
		return m.lastPage
	}
	p, ok := m.pages[pn]
	if !ok {
		p = make([]uint64, pageWords)
		m.pages[pn] = p
	}
	m.lastPageNum, m.lastPage, m.lastPageInit = pn, p, true
	return p
}

// Load returns the 64-bit word at addr. addr must be word aligned.
func (m *Memory) Load(addr uint64) uint64 {
	if !WordAligned(addr) {
		panic(fmt.Sprintf("mem: misaligned load at %#x", addr))
	}
	return m.page(addr)[(addr>>WordShift)&(pageWords-1)]
}

// Store writes the 64-bit word at addr. addr must be word aligned.
func (m *Memory) Store(addr, val uint64) {
	if !WordAligned(addr) {
		panic(fmt.Sprintf("mem: misaligned store at %#x", addr))
	}
	m.page(addr)[(addr>>WordShift)&(pageWords-1)] = val
}

// EachPage calls f with the address of the first word of every
// materialized page and the page's words, in no particular order. It
// materializes nothing, and f must only read the words: the native
// runtime builds its phase-long read view of the frozen memory from them.
func (m *Memory) EachPage(f func(addr uint64, words []uint64)) {
	for pn, p := range m.pages {
		f(pn<<pageShift, p)
	}
}

// Pages returns the number of materialized pages (for tests/diagnostics).
func (m *Memory) Pages() int { return len(m.pages) }

// Snapshot copies the full live contents, for golden-state comparisons in
// tests. Only materialized pages are copied.
func (m *Memory) Snapshot() map[uint64]uint64 {
	s := make(map[uint64]uint64)
	for pn, p := range m.pages {
		base := pn << pageShift
		for i, w := range p {
			if w != 0 {
				s[base+uint64(i)<<WordShift] = w
			}
		}
	}
	return s
}
