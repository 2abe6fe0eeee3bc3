// Package sim provides the deterministic discrete-event simulation engine
// that everything else in the simulator is built on.
//
// The engine is sequential: events fire one at a time in (cycle, insertion
// sequence) order, so a simulation is a pure function of its inputs. This
// mirrors the paper's in-house sequential, event-driven simulator (§5).
//
// Internally the pending-event set is a bucketed hierarchical timing wheel
// (the calendar-queue design used by cycle-accurate simulators): a ring of
// wheelSize FIFO buckets covers the near future one cycle per bucket, and a
// min-heap holds the far-future overflow. Because the ring covers exactly
// wheelSize consecutive cycles, each bucket maps to a single cycle at a
// time, so appending preserves insertion-sequence order within a cycle;
// overflow events migrate into the ring the moment the window reaches their
// cycle — before any direct insertion for that cycle can happen — keeping
// global (cycle, seq) order exact. Event structs are recycled through a
// free list, and cancellation compacts eagerly (the slot is nilled and all
// live counts are updated immediately), so the hot path allocates nothing
// in steady state.
package sim

import "fmt"

const (
	wheelBits = 8
	// wheelSize is the number of near-future cycles the ring covers.
	// Larger wheels trade memory for fewer overflow migrations; 256 covers
	// every recurring latency in the machine model (GVT period, cache miss,
	// spill batches) so overflow traffic is rare.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Event is a scheduled callback. Events may be cancelled before they fire.
//
// An Event handle is only valid while the event is pending: once it fires
// or is cancelled, the engine recycles the Event, and a retained pointer
// must not be used (Cancel/Cancelled on a recycled handle observe an
// unrelated event). Holders should drop their reference when the event
// fires or immediately after cancelling, as Machine does with pendingEv.
type Event struct {
	cycle     uint64
	seq       uint64
	fn        func()
	cancelled bool

	// Location of the event: slot index in its wheel bucket, heap index in
	// the overflow heap, or locFree/locFired (see loc).
	loc int8
	pos int32

	owner *Engine // set once at creation; Cancel routes through it
	next  *Event  // free-list link
}

const (
	locFired int8 = iota // fired, or never scheduled
	locWheel             // in a wheel bucket; pos is the slot index
	locHeap              // in the overflow heap; pos is the heap index
	locFree              // in the free list
)

// Cycle returns the cycle at which the event is scheduled to fire.
func (ev *Event) Cycle() uint64 { return ev.cycle }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// bucket holds one cycle's events in insertion (sequence) order. Cancelled
// events leave nil holes; live tracks the remaining real entries. The cycle
// tag detects stale contents when the ring wraps, so buckets are reset
// lazily on first use for a new cycle.
type bucket struct {
	cycle uint64
	live  int
	evs   []*Event
}

// Engine is a discrete-event simulator clock and pending-event queue.
// The zero value is ready to use.
type Engine struct {
	now   uint64
	seq   uint64
	fired uint64

	// base is the first cycle the ring currently maps; the ring covers
	// [base, base+wheelSize). Invariant: no pending event precedes base,
	// and outside of Step, base == now once any event has fired.
	base      uint64
	pos       int // next slot to inspect in the current bucket
	wheelLive int // non-cancelled events anywhere in the ring
	buckets   [wheelSize]bucket

	overflow overflowHeap // events at cycle >= base+wheelSize

	pending int    // live scheduled events (wheel + overflow)
	free    *Event // recycled Event structs
}

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live scheduled events. Cancelled events are
// compacted eagerly and never counted.
func (e *Engine) Pending() int { return e.pending }

// At schedules fn to run at the given absolute cycle. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(cycle uint64, fn func()) *Event {
	if cycle < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now (%d)", cycle, e.now))
	}
	ev := e.alloc()
	ev.cycle = cycle
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.pending++
	if cycle < e.base+wheelSize {
		e.wheelInsert(ev)
	} else {
		e.overflow.push(ev)
	}
	return ev
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay uint64, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event is removed from its queue
// immediately and recycled.
func (ev *Event) Cancel() {
	if ev.loc == locFired || ev.loc == locFree {
		ev.cancelled = true
		return
	}
	ev.cancelled = true
	ev.owner.remove(ev)
}

func (e *Engine) alloc() *Event {
	ev := e.free
	if ev == nil {
		ev = &Event{owner: e}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.cancelled = false
	return ev
}

func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.loc = locFree
	ev.next = e.free
	e.free = ev
}

// wheelInsert places an event whose cycle is inside the ring window.
func (e *Engine) wheelInsert(ev *Event) {
	b := &e.buckets[ev.cycle&wheelMask]
	if b.cycle != ev.cycle {
		// First use of this bucket for a new cycle: drop stale contents.
		b.cycle = ev.cycle
		b.evs = b.evs[:0]
		b.live = 0
	}
	ev.loc = locWheel
	ev.pos = int32(len(b.evs))
	b.evs = append(b.evs, ev)
	b.live++
	e.wheelLive++
}

// remove detaches a live event from its queue (cancellation path) and
// recycles it.
func (e *Engine) remove(ev *Event) {
	switch ev.loc {
	case locWheel:
		b := &e.buckets[ev.cycle&wheelMask]
		b.evs[ev.pos] = nil
		b.live--
		e.wheelLive--
	case locHeap:
		e.overflow.remove(int(ev.pos))
	}
	e.pending--
	e.recycle(ev)
}

// migrate moves overflow events whose cycle has entered the ring window
// into their buckets, in (cycle, seq) order.
func (e *Engine) migrate() {
	limit := e.base + wheelSize
	for len(e.overflow.evs) > 0 {
		head := e.overflow.evs[0]
		if head.cycle >= limit {
			return
		}
		e.overflow.pop()
		e.wheelInsert(head)
	}
}

// Step fires the next event. It returns false when no events are pending.
func (e *Engine) Step() bool {
	if e.pending == 0 {
		return false
	}
	// Find the next live bucket, advancing the window. If the ring is
	// empty, jump straight to the overflow's earliest cycle.
	if e.wheelLive == 0 {
		e.base = e.overflow.evs[0].cycle
		e.pos = 0
		e.migrate()
	}
	for {
		b := &e.buckets[e.base&wheelMask]
		if b.live > 0 && b.cycle == e.base {
			for {
				ev := b.evs[e.pos]
				e.pos++
				if ev == nil {
					continue
				}
				if ev.cycle < e.now {
					panic("sim: time went backwards")
				}
				b.evs[ev.pos] = nil
				b.live--
				e.wheelLive--
				e.pending--
				ev.loc = locFired
				e.now = ev.cycle
				e.fired++
				fn := ev.fn
				e.recycle(ev)
				fn()
				return true
			}
		}
		// This cycle is exhausted: advance the window by one cycle and pull
		// in any overflow event that just became mappable.
		e.base++
		e.pos = 0
		e.migrate()
	}
}

// Run fires events until the queue is empty or the cycle limit is exceeded.
// A limit of 0 means no limit. It returns an error if the limit was hit,
// which almost always indicates a livelocked simulation.
func (e *Engine) Run(limit uint64) error {
	for e.Step() {
		if limit != 0 && e.now > limit {
			return fmt.Errorf("sim: cycle limit %d exceeded at cycle %d (%d events fired)", limit, e.now, e.fired)
		}
	}
	return nil
}

// overflowHeap is an intrusive min-heap over (cycle, seq) holding events
// beyond the ring window. Events track their heap index in pos, so
// cancellation removes in O(log n) without scanning.
type overflowHeap struct {
	evs []*Event
}

func (h *overflowHeap) less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (h *overflowHeap) swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.evs[i].pos = int32(i)
	h.evs[j].pos = int32(j)
}

func (h *overflowHeap) push(ev *Event) {
	ev.loc = locHeap
	ev.pos = int32(len(h.evs))
	h.evs = append(h.evs, ev)
	h.up(len(h.evs) - 1)
}

func (h *overflowHeap) pop() *Event {
	ev := h.evs[0]
	h.remove(0)
	return ev
}

// remove deletes the element at index i, preserving heap order.
func (h *overflowHeap) remove(i int) {
	n := len(h.evs) - 1
	if i != n {
		h.swap(i, n)
	}
	h.evs[n] = nil
	h.evs = h.evs[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
}

func (h *overflowHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *overflowHeap) down(i int) {
	n := len(h.evs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.less(r, l) {
			small = r
		}
		if !h.less(small, i) {
			return
		}
		h.swap(i, small)
		i = small
	}
}
