package mem

import "fmt"

// AllocCycles is the fixed cost the paper charges per allocator operation
// for every implementation, serial, software-parallel, and Swarm (§5).
const AllocCycles = 30

// heapBase leaves the low region unmapped so that a zero address is never a
// valid guest pointer (it doubles as "null" in guest data structures).
const heapBase = 1 << 20

// Allocator is the idealized task-aware guest allocator. Allocation bumps a
// pointer; Free defers the words to a quarantine that is only recycled once
// the freeing task commits (ReleaseQuarantine), so speculatively freed
// memory is never handed to another task — exactly the paper's idealization
// that avoids spurious allocator dependences.
type Allocator struct {
	brk        uint64
	quarantine map[uint64][]span // freeing task token -> spans
	freeSpans  []span
}

type span struct {
	addr  uint64
	bytes uint64
}

// NewAllocator returns an allocator whose heap starts above heapBase.
func NewAllocator() *Allocator {
	return &Allocator{brk: heapBase, quarantine: make(map[uint64][]span)}
}

// Alloc returns the word-aligned guest address of a fresh region of at
// least nBytes. Recycled spans are reused first-fit when they are exactly
// large enough; otherwise the break is bumped.
func (a *Allocator) Alloc(nBytes uint64) uint64 {
	if nBytes == 0 {
		nBytes = WordBytes
	}
	nBytes = (nBytes + WordBytes - 1) &^ uint64(WordBytes-1)
	for i, s := range a.freeSpans {
		if s.bytes >= nBytes {
			a.freeSpans = append(a.freeSpans[:i], a.freeSpans[i+1:]...)
			return s.addr
		}
	}
	addr := a.brk
	a.brk += nBytes
	return addr
}

// AllocLineAligned is Alloc but the result is 64-byte aligned, so distinct
// allocations never share a conflict-detection line.
func (a *Allocator) AllocLineAligned(nBytes uint64) uint64 {
	a.brk = (a.brk + LineBytes - 1) &^ uint64(LineBytes-1)
	return a.Alloc((nBytes + LineBytes - 1) &^ uint64(LineBytes-1))
}

// Free quarantines [addr, addr+nBytes) under the given task token. The
// span becomes reusable only after ReleaseQuarantine(token) — i.e. when the
// freeing task commits.
func (a *Allocator) Free(token, addr, nBytes uint64) {
	a.quarantine[token] = append(a.quarantine[token], span{addr, nBytes})
}

// ReleaseQuarantine recycles every span freed under token.
func (a *Allocator) ReleaseQuarantine(token uint64) {
	spans := a.quarantine[token]
	if len(spans) == 0 {
		return
	}
	delete(a.quarantine, token)
	a.freeSpans = append(a.freeSpans, spans...)
}

// DropQuarantine discards the frees done under token without recycling
// (used when the freeing task aborts: the frees never happened).
func (a *Allocator) DropQuarantine(token uint64) {
	delete(a.quarantine, token)
}

func (s span) String() string { return fmt.Sprintf("[%#x +%d]", s.addr, s.bytes) }
