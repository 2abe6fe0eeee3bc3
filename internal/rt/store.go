package rt

import (
	"fmt"
	"sync/atomic"

	"github.com/swarm-sim/swarm/internal/mem"
)

// The versioned store is the runtime's speculative memory system. The
// base mem.Memory is frozen for the duration of a phase, and every word
// committed during the phase lives in an overlay of (value, version)
// pairs. Tasks execute against committed state only — speculative writes
// stay in the task's private write buffer until its commit — so the
// overlay is the runtime's single point of cross-task communication:
//
//   - a speculative read returns the overlay word, or the frozen base word
//     at implicit version 0, and records the version it observed;
//   - commit-time validation re-reads the versions of every address in
//     the task's read set; any bump means a conflicting commit slipped
//     between the read and the commit, and the task aborts and retries
//     (optimistic concurrency control with a write buffer, after Saad et
//     al.'s ordered transaction processing);
//   - a committed write stores the value, then bumps the version.
//
// Reads take no lock. A reader loads a word's version first and its value
// second; the committer, the only writer, stores the value first and the
// version second. Both are sync/atomic words, so a reader that observes
// version v also observes the value of v's commit or of a later one. A
// later value pairs with a stale version, and validation, which holds the
// lock that serializes commits, sees the later commit's bump and rejects
// the read: no torn pair can commit.
//
// The directory maps page numbers to slots in fixed-size leaves. The leaf
// list is copy-on-write: a commit that touches a page outside every leaf
// publishes a new list through an atomic pointer, so readers never lock
// and any word-aligned address mem.Memory accepts has a slot. A slot holds
// the page's frozen base words (the read view built at phase start) and,
// once a commit writes into the page, its overlay.
//
// At quiescence flush folds the words committed this phase into the base
// memory and resets their versions, so between phases (and after the run)
// guest memory reads exactly like the simulator's committed state. Overlay
// pages stay allocated for the next phase; a version of 0 marks an overlay
// word as stale.
type store struct {
	base *mem.Memory
	dir  atomic.Pointer[[]*leaf]
	// dirty lists the addresses committed this phase, each once.
	// Committer-only.
	dirty []uint64
}

const (
	pageShift = 16 // 64 KB pages, as in mem
	pageWords = 1 << (pageShift - mem.WordShift)
	// leafBits sizes a directory leaf: 4096 pages cover 256 MB of guest
	// memory, so the bump allocator's dense heap needs one or two leaves
	// and a lookup's scan of the leaf list is one or two compares.
	leafBits  = 12
	leafPages = 1 << leafBits
)

// vword is one overlay word: its value and the number of commits that
// wrote it this phase (version 0: the base word is current).
type vword struct {
	ver, val atomic.Uint64
}

type overlay [pageWords]vword

type slot struct {
	base *[pageWords]uint64 // nil: the page held no words at phase start
	over atomic.Pointer[overlay]
}

type leaf struct {
	hi    uint64 // page number >> leafBits
	slots [leafPages]slot
}

func newStore(base *mem.Memory) *store {
	s := &store{base: base}
	s.dir.Store(new([]*leaf))
	return s
}

// wordIndex is addr's index within its page.
func wordIndex(addr uint64) uint64 { return addr >> mem.WordShift & (pageWords - 1) }

// slot returns addr's directory slot, or nil if no leaf covers it.
func (s *store) slot(addr uint64) *slot {
	pn := addr >> pageShift
	hi := pn >> leafBits
	for _, l := range *s.dir.Load() {
		if l.hi == hi {
			return &l.slots[pn&(leafPages-1)]
		}
	}
	return nil
}

// slotFor is slot, adding a leaf when none covers addr. Committer-only.
func (s *store) slotFor(addr uint64) *slot {
	if sl := s.slot(addr); sl != nil {
		return sl
	}
	old := *s.dir.Load()
	l := &leaf{hi: addr >> pageShift >> leafBits}
	leaves := make([]*leaf, len(old)+1)
	copy(leaves, old)
	leaves[len(old)] = l
	s.dir.Store(&leaves)
	return &l.slots[addr>>pageShift&(leafPages-1)]
}

// beginPhase builds the read view of the base memory, which the phase
// then leaves frozen. Single-threaded: no worker runs.
func (s *store) beginPhase() {
	s.base.EachPage(func(addr uint64, words []uint64) {
		for off := 0; off < len(words); off += pageWords {
			s.slotFor(addr + uint64(off)<<mem.WordShift).base = (*[pageWords]uint64)(words[off:])
		}
	})
}

// read returns the committed word at addr and the version the caller
// observed. Safe for concurrent readers at any time.
func (s *store) read(addr uint64) (val, ver uint64) {
	if !mem.WordAligned(addr) {
		panic(fmt.Sprintf("mem: misaligned load at %#x", addr))
	}
	sl := s.slot(addr)
	if sl == nil {
		return 0, 0
	}
	i := wordIndex(addr)
	if ov := sl.over.Load(); ov != nil {
		w := &ov[i]
		if ver = w.ver.Load(); ver != 0 {
			return w.val.Load(), ver
		}
	}
	if sl.base != nil {
		return sl.base[i], 0
	}
	return 0, 0
}

// version returns the current version of addr (0 = untouched base word).
func (s *store) version(addr uint64) uint64 {
	if sl := s.slot(addr); sl != nil {
		if ov := sl.over.Load(); ov != nil {
			return ov[wordIndex(addr)].ver.Load()
		}
	}
	return 0
}

// commitWrite publishes one committed word: value first, then the bumped
// version. Callers serialize commits (the scheduler lock), so this is the
// only writer.
func (s *store) commitWrite(addr, val uint64) {
	sl := s.slotFor(addr)
	ov := sl.over.Load()
	if ov == nil {
		ov = new(overlay)
		sl.over.Store(ov)
	}
	w := &ov[wordIndex(addr)]
	ver := w.ver.Load()
	if ver == 0 {
		s.dirty = append(s.dirty, addr)
	}
	w.val.Store(val)
	w.ver.Store(ver + 1)
}

// flush folds the words committed this phase into the base memory and
// marks their overlay words stale. Single-threaded: every worker has
// joined.
func (s *store) flush() {
	for _, addr := range s.dirty {
		w := &s.slot(addr).over.Load()[wordIndex(addr)]
		s.base.Store(addr, w.val.Load())
		w.ver.Store(0)
	}
	s.dirty = s.dirty[:0]
}
