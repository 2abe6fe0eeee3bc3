// Package swrt is the software runtime for guest programs: data structures
// and synchronization primitives that live entirely in simulated memory, so
// their costs — pointer chasing, cache misses, contention — are physically
// modeled. The serial baselines use the heap and FIFO (the scheduling
// structures whose false dependences motivate Swarm, §3); the
// software-parallel baselines add spinlocks, barriers, the chunked claim
// loop and the level-synchronous worklist; Swarm guest code shares the
// union-find and array helpers.
package swrt

import "github.com/swarm-sim/swarm/internal/guest"

// Array is a fixed-size array of 64-bit words in guest memory.
type Array struct {
	Base uint64
	N    uint64
}

// NewArray carves an array out of setup-allocated memory.
func NewArray(alloc func(uint64) uint64, n uint64) Array {
	return Array{Base: alloc(n * 8), N: n}
}

// Addr returns the address of element i.
func (a Array) Addr(i uint64) uint64 { return a.Base + i*8 }

// Get loads element i.
func (a Array) Get(e guest.Env, i uint64) uint64 { return e.Load(a.Addr(i)) }

// Set stores element i.
func (a Array) Set(e guest.Env, i uint64, v uint64) { e.Store(a.Addr(i), v) }

// Heap is a binary min-heap of (key, value) pairs in guest memory: the
// priority queue serial sssp/astar/des use. Layout: word 0 = length,
// then capacity*(key, value) pairs. Every operation issues real guest
// loads and stores, so heap traffic creates exactly the false data
// dependences §3 describes.
type Heap struct {
	base uint64
	cap  uint64
}

// NewHeap allocates a heap with the given capacity (setup-time).
func NewHeap(alloc func(uint64) uint64, capacity uint64) Heap {
	return Heap{base: alloc(8 + capacity*16), cap: capacity}
}

func (h Heap) lenAddr() uint64         { return h.base }
func (h Heap) keyAddr(i uint64) uint64 { return h.base + 8 + i*16 }
func (h Heap) valAddr(i uint64) uint64 { return h.base + 8 + i*16 + 8 }

// Len returns the current element count.
func (h Heap) Len(e guest.Env) uint64 { return e.Load(h.lenAddr()) }

// PeekMin returns the minimum pair without removing it.
func (h Heap) PeekMin(e guest.Env) (key, val uint64, ok bool) {
	if e.Load(h.lenAddr()) == 0 {
		return 0, 0, false
	}
	return e.Load(h.keyAddr(0)), e.Load(h.valAddr(0)), true
}

// Push inserts a (key, value) pair.
func (h Heap) Push(e guest.Env, key, val uint64) {
	n := e.Load(h.lenAddr())
	if n >= h.cap {
		panic("swrt: heap overflow")
	}
	i := n
	e.Store(h.keyAddr(i), key)
	e.Store(h.valAddr(i), val)
	e.Store(h.lenAddr(), n+1)
	for i > 0 {
		p := (i - 1) / 2
		pk := e.Load(h.keyAddr(p))
		ik := e.Load(h.keyAddr(i))
		e.Work(2)
		if pk <= ik {
			break
		}
		h.swap(e, i, p)
		i = p
	}
}

// PopMin removes and returns the minimum pair; ok is false when empty.
func (h Heap) PopMin(e guest.Env) (key, val uint64, ok bool) {
	n := e.Load(h.lenAddr())
	if n == 0 {
		return 0, 0, false
	}
	key = e.Load(h.keyAddr(0))
	val = e.Load(h.valAddr(0))
	n--
	e.Store(h.lenAddr(), n)
	if n == 0 {
		return key, val, true
	}
	lk := e.Load(h.keyAddr(n))
	lv := e.Load(h.valAddr(n))
	e.Store(h.keyAddr(0), lk)
	e.Store(h.valAddr(0), lv)
	i := uint64(0)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		sk := e.Load(h.keyAddr(i))
		if l < n {
			if k := e.Load(h.keyAddr(l)); k < sk {
				small, sk = l, k
			}
		}
		if r < n {
			if k := e.Load(h.keyAddr(r)); k < sk {
				small, sk = r, k
			}
		}
		e.Work(3)
		if small == i {
			break
		}
		h.swap(e, i, small)
		i = small
	}
	return key, val, true
}

func (h Heap) swap(e guest.Env, i, j uint64) {
	ik, iv := e.Load(h.keyAddr(i)), e.Load(h.valAddr(i))
	jk, jv := e.Load(h.keyAddr(j)), e.Load(h.valAddr(j))
	e.Store(h.keyAddr(i), jk)
	e.Store(h.valAddr(i), jv)
	e.Store(h.keyAddr(j), ik)
	e.Store(h.valAddr(j), iv)
}

// FIFO is a ring buffer of 64-bit values in guest memory (serial bfs's
// queue). Layout: [head, tail, capacity slots...].
type FIFO struct {
	base uint64
	cap  uint64
}

// NewFIFO allocates a queue with the given capacity (setup-time).
func NewFIFO(alloc func(uint64) uint64, capacity uint64) FIFO {
	return FIFO{base: alloc(16 + capacity*8), cap: capacity}
}

// Push appends a value.
func (q FIFO) Push(e guest.Env, v uint64) {
	tail := e.Load(q.base + 8)
	e.Store(q.base+16+(tail%q.cap)*8, v)
	e.Store(q.base+8, tail+1)
}

// Pop removes the oldest value; ok is false when empty.
func (q FIFO) Pop(e guest.Env) (v uint64, ok bool) {
	head := e.Load(q.base)
	tail := e.Load(q.base + 8)
	if head == tail {
		return 0, false
	}
	v = e.Load(q.base + 16 + (head%q.cap)*8)
	e.Store(q.base, head+1)
	return v, true
}

// Empty reports whether the queue is empty.
func (q FIFO) Empty(e guest.Env) bool {
	return e.Load(q.base) == e.Load(q.base+8)
}

// UnionFind is an array-based disjoint-set forest in guest memory, used by
// msf. Find is read-only (union-by-size, no path compression): Kruskal
// tasks then have the tiny write sets Table 1 reports for msf (0.03
// words/task on average — only tree edges write).
type UnionFind struct {
	parent Array // parent[i], or i if root
	size   Array
}

// NewUnionFind builds a forest of n singletons (setup-time: callers
// initialize parent[i]=i, size[i]=1 directly in memory).
func NewUnionFind(alloc func(uint64) uint64, n uint64) UnionFind {
	return UnionFind{parent: NewArray(alloc, n), size: NewArray(alloc, n)}
}

// InitDirect initializes the forest bypassing timing (setup).
func (u UnionFind) InitDirect(store func(addr, val uint64)) {
	for i := uint64(0); i < u.parent.N; i++ {
		store(u.parent.Addr(i), i)
		store(u.size.Addr(i), 1)
	}
}

// Find returns the root of x without modifying the structure.
func (u UnionFind) Find(e guest.Env, x uint64) uint64 {
	for {
		p := u.parent.Get(e, x)
		e.Work(1)
		if p == x {
			return x
		}
		x = p
	}
}

// Union links the roots of a and b; returns false if already connected.
func (u UnionFind) Union(e guest.Env, a, b uint64) bool {
	ra, rb := u.Find(e, a), u.Find(e, b)
	if ra == rb {
		return false
	}
	sa, sb := u.size.Get(e, ra), u.size.Get(e, rb)
	e.Work(2)
	if sa < sb {
		ra, rb = rb, ra
		sa, sb = sb, sa
	}
	u.parent.Set(e, rb, ra)
	u.size.Set(e, ra, sa+sb)
	return true
}

// SpinLock is a test-and-set lock at a guest address (the word must be
// zero-initialized and ideally alone on its cache line).
type SpinLock struct{ Addr uint64 }

// Acquire spins with linear backoff until the lock is held.
func (l SpinLock) Acquire(e guest.ThreadEnv) {
	backoff := uint64(4)
	for !e.CAS(l.Addr, 0, 1) {
		e.Work(backoff)
		if backoff < 256 {
			backoff *= 2
		}
	}
}

// Release frees the lock.
func (l SpinLock) Release(e guest.ThreadEnv) { e.Store(l.Addr, 0) }

// Barrier is a sense-reversing centralized barrier in guest memory.
// Layout: [count, sense]. Each thread keeps its local sense in localSense.
type Barrier struct {
	base  uint64
	total uint64
}

// NewBarrier allocates a barrier for total threads (setup-time).
func NewBarrier(alloc func(uint64) uint64, total uint64) Barrier {
	return Barrier{base: alloc(16), total: total}
}

// Wait blocks until all threads arrive. localSense must start at 0 and be
// carried across calls by each thread.
func (b Barrier) Wait(e guest.ThreadEnv, localSense *uint64) {
	*localSense = 1 - *localSense
	arrived := e.FetchAdd(b.base, 1) + 1
	if arrived == b.total {
		e.Store(b.base, 0)             // reset count
		e.Store(b.base+8, *localSense) // flip sense: release everyone
		return
	}
	for e.Load(b.base+8) != *localSense {
		e.Work(30) // poll with backoff to bound event counts
	}
}

// Claim hands out the indices from the cursor word's value up to n among
// the threads that call it, chunk at a time: each claim is one
// fetch-and-add on the cursor, and body runs on every index of the
// claimed chunk. Claim returns once a claim lands at or past n; reset the
// cursor behind a barrier before the next loop over it.
func Claim(e guest.ThreadEnv, cursor, n, chunk uint64, body func(i uint64)) {
	for {
		s := e.FetchAdd(cursor, chunk)
		if s >= n {
			return
		}
		for i, end := s, min(s+chunk, n); i < end; i++ {
			body(i)
		}
	}
}

// Worklist is a double-buffered level-synchronous worklist in guest
// memory: each round, threads drain the current list and push onto the
// next, then one thread swaps the two between barriers. Its control line
// is [curBase, curCount, nextBase, nextCount, cursor]; the line's last
// three words are the caller's.
type Worklist struct {
	Ctl uint64 // the control line
	cap uint64 // items per list
}

// NewWorklist allocates two lists of capacity items, then the control
// line, and seeds the first round with seed (setup-time).
func NewWorklist(alloc func(uint64) uint64, store func(addr, val uint64), capacity uint64, seed []uint64) Worklist {
	cur, next := NewArray(alloc, capacity), NewArray(alloc, capacity)
	w := Worklist{Ctl: alloc(64), cap: capacity}
	for i, v := range seed {
		store(cur.Addr(uint64(i)), v)
	}
	store(w.Ctl, cur.Base)
	store(w.Ctl+8, uint64(len(seed)))
	store(w.Ctl+16, next.Base)
	return w
}

// Round is one thread's copy of a round's list bases and item count.
type Round struct{ cur, count, next uint64 }

// Round loads the current round's control words; ok is false when the
// round is empty, which ends the loop.
func (w Worklist) Round(e guest.ThreadEnv) (r Round, ok bool) {
	r = Round{cur: e.Load(w.Ctl), count: e.Load(w.Ctl + 8), next: e.Load(w.Ctl + 16)}
	return r, r.count != 0
}

// Drain claims the round's items chunk at a time and calls visit on each.
func (w Worklist) Drain(e guest.ThreadEnv, r Round, chunk uint64, visit func(v uint64)) {
	Claim(e, w.Ctl+32, r.count, chunk, func(i uint64) { visit(e.Load(r.cur + i*8)) })
}

// Push appends v to the next round's list.
func (w Worklist) Push(e guest.ThreadEnv, r Round, v uint64) {
	slot := e.FetchAdd(w.Ctl+24, 1)
	if slot >= w.cap {
		panic("swrt: worklist overflow")
	}
	e.Store(r.next+slot*8, v)
}

// Swap makes the next list current and empties the other. One thread
// calls it, between the barrier that ends a round's drain and the one
// that starts the next round.
func (w Worklist) Swap(e guest.ThreadEnv, r Round) {
	nc := e.Load(w.Ctl + 24)
	e.Store(w.Ctl, r.next)
	e.Store(w.Ctl+8, nc)
	e.Store(w.Ctl+16, r.cur)
	e.Store(w.Ctl+24, 0)
	e.Store(w.Ctl+32, 0)
}
