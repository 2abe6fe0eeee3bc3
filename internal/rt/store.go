package rt

import (
	"sync/atomic"

	"github.com/swarm-sim/swarm/internal/mem"
)

// The versioned store is the runtime's speculative memory system. It
// versions eagerly, as the paper does (§4.3): a write stores its value
// with sync/atomic into the mem.Memory page that holds the word, so each
// word has one copy. A tracked attempt buffers its writes until its
// commit publishes them; the earliest attempt, under which nothing
// commits, stores in place at once and logs the words it replaces in the
// undo log, which a failed phase rolls back. Either way guest memory
// holds exactly the committed state whenever no worker runs. The store
// is the runtime's single point of cross-task communication:
//
//   - a tracked read returns the word and records its version;
//   - commit-time validation re-reads the versions of every address in
//     the task's read set; any bump means a conflicting write slipped
//     between the read and the commit, and the task aborts and retries
//     (optimistic concurrency control with a write buffer, after Saad et
//     al.'s ordered transaction processing);
//   - every write, a rollback's too, stores the value, then bumps the
//     version, so a read of a word the earliest attempt overwrites fails
//     validation; a read of its final value passes, since the earliest
//     attempt commits first;
//   - the earliest attempt loads the value alone.
//
// Versions live beside the page, one atomic word per guest word, in an
// array the page's first write allocates; a page nothing has written is
// at version 0 throughout. Versions keep counting across phases: a read
// set never outlives its phase, so validation needs only to see a
// version change, never a particular value.
//
// Reads take no lock. A reader loads a word's version first and its value
// second; the writer stores the value first and the version second, and
// there is one writer at a time: commits hold the scheduler lock, and
// nothing commits while the earliest attempt runs. Both are sync/atomic
// words, so a reader that observes version v also observes the value of
// v's write or of a later one. A later value pairs with a stale version,
// and validation, which holds the lock that serializes commits, sees the
// later bump and rejects the read: no torn pair can commit.
//
// The directory maps page numbers to slots in fixed-size leaves. The leaf
// list is copy-on-write: a write that touches a page outside every leaf
// publishes a new list through an atomic pointer, so readers never lock
// and any word-aligned address mem.Memory accepts has a slot. A slot holds
// the page's words, registered at phase start or by the write that
// materializes the page, and the page's versions.
type store struct {
	base *mem.Memory
	dir  atomic.Pointer[[]*leaf]
	// undo logs the word each in-place store of the earliest attempt
	// replaced, oldest first, skipping a store to the word logged last:
	// one attempt is the earliest at a time.
	undo []undoRec
}

type undoRec struct{ addr, old uint64 }

const (
	pageShift = 16 // mem's 64 KB pages (mem.Memory.Page's type checks it)
	pageWords = 1 << (pageShift - mem.WordShift)
	// leafBits sizes a directory leaf: 4096 pages cover 256 MB of guest
	// memory, so the bump allocator's dense heap needs one or two leaves
	// and a lookup's scan of the leaf list is one or two compares.
	leafBits  = 12
	leafPages = 1 << leafBits
)

type slot struct {
	words atomic.Pointer[[pageWords]uint64]        // nil: the page holds no word yet
	vers  atomic.Pointer[[pageWords]atomic.Uint64] // nil: nothing has written the page
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

// slotFor is slot, adding a leaf when none covers addr. Writer-only.
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

// beginPhase registers every page of the base memory, including those
// the host materialized since the last phase. Single-threaded: no worker
// runs.
func (s *store) beginPhase() {
	s.base.EachPage(func(addr uint64, words []uint64) {
		s.slotFor(addr).words.Store((*[pageWords]uint64)(words))
	})
}

// read returns the committed word at addr and the version the caller
// observed. Safe for concurrent readers at any time.
func (s *store) read(addr uint64) (val, ver uint64) {
	sl := s.slot(addr)
	if sl == nil {
		return 0, 0
	}
	i := wordIndex(addr)
	if vs := sl.vers.Load(); vs != nil {
		ver = vs[i].Load()
	}
	if p := sl.words.Load(); p != nil {
		val = atomic.LoadUint64(&p[i])
	}
	return val, ver
}

// load returns the word at addr without its version, for the earliest
// attempt, which no commit can invalidate.
func (s *store) load(addr uint64) uint64 {
	if sl := s.slot(addr); sl != nil {
		if p := sl.words.Load(); p != nil {
			return atomic.LoadUint64(&p[wordIndex(addr)])
		}
	}
	return 0
}

// version returns the current version of addr.
func (s *store) version(addr uint64) uint64 {
	if sl := s.slot(addr); sl != nil {
		if vs := sl.vers.Load(); vs != nil {
			return vs[wordIndex(addr)].Load()
		}
	}
	return 0
}

// commitWrite publishes one word in place, value first and then the
// bumped version, and returns the word it replaced. A page's first write
// allocates its versions, and materializes the page in the base memory if
// no word of it existed. Its callers are the one writer: a commit, under
// the scheduler lock, or the earliest attempt.
func (s *store) commitWrite(addr, val uint64) (old uint64) {
	sl := s.slotFor(addr)
	p := sl.words.Load()
	if p == nil {
		p = s.base.Page(addr)
		sl.words.Store(p)
	}
	vs := sl.vers.Load()
	if vs == nil {
		vs = new([pageWords]atomic.Uint64)
		sl.vers.Store(vs)
	}
	i := wordIndex(addr)
	old = p[i]
	atomic.StoreUint64(&p[i], val)
	vs[i].Store(vs[i].Load() + 1)
	return old
}
