// Package frontier provides a bucketed-priority frontier for guest code:
// the PriorityGraph/Julienne abstraction — enqueue-with-priority, a
// configurable bucketing delta, and lazy pruning of stale entries — mapped
// onto Swarm's timestamped tasks. Priority-ordered graph kernels
// (delta-stepping SSSP, k-core-class peeling, rank-ordered coloring)
// become a handler body plus a few frontier calls.
//
// The frontier is pure guest code over the guest.Env op surface (Load,
// Store, Work, EnqueueHinted), so it runs unchanged on every execution
// backend — the cycle-level simulator, the native speculative runtime and
// the conservative runtime.
//
// # Model
//
// Each key (vertex) owns one 64-byte line of state, sized to the conflict
// -detection granularity so distinct keys never false-share:
//
//	value @ +0   the settled result (Unsettled until the key settles)
//	aux   @ +8   application scratch (degree counter, tentative distance)
//	best  @ +16  the best pending entry's timestamp (lazy pruning)
//
// Push(key, prio) converts a priority to a task timestamp — bucketed down
// to a multiple of Delta, clamped up to the pusher's own timestamp (time
// cannot run backwards) — and enqueues the key's handler there, but only
// if it beats the key's best pending entry: re-pushes that could never
// run first are pruned at the source instead of clogging task queues.
// This is exactly Julienne's lazy bucket update with Swarm's task queues
// as the buckets.
package frontier

import (
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// Unsettled marks a key whose value has not settled yet.
const Unsettled = ^uint64(0)

// NeverPushed is the best-pending sentinel for keys with no pending entry.
const NeverPushed = ^uint64(0)

// Frontier is a bucketed-priority frontier over n keys. Allocate with New
// at build time, then register the handler function and assign it to Fn
// before any task pushes.
type Frontier struct {
	// Fn is the handler task every push enqueues: fn(key) at the bucketed
	// priority. The app registers it (controlling function-table order)
	// and stores the id here.
	Fn guest.FnID
	// Delta is the bucket width: priorities are rounded down to a multiple
	// of Delta, so an entire bucket becomes one timestamp and the machine
	// is free to run its keys in parallel (delta-stepping's trade: wider
	// buckets expose more parallelism but admit more wasted relaxations —
	// under speculation they are aborted, not incorrect). Delta <= 1 keeps
	// exact priority order.
	Delta uint64

	base uint64
	n    uint64
}

// New allocates the frontier's per-key state lines (n keys). Keys start
// fully blank; initialize each with Init before the run.
func New(alloc func(uint64) uint64, n, delta uint64) *Frontier {
	return &Frontier{Delta: delta, base: alloc(n * 64), n: n}
}

// ValueAddr returns the guest address of a key's settled value.
func (f *Frontier) ValueAddr(key uint64) uint64 { return f.base + key*64 }

// AuxAddr returns the guest address of a key's application scratch word.
func (f *Frontier) AuxAddr(key uint64) uint64 { return f.base + key*64 + 8 }

// BestAddr returns the guest address of a key's best-pending word.
func (f *Frontier) BestAddr(key uint64) uint64 { return f.base + key*64 + 16 }

// Init writes a key's initial state with the setup-time store (untimed).
// A key that will be seeded at priority p must set best = p, marking the
// root entry pending; unseeded keys use NeverPushed.
func (f *Frontier) Init(store func(addr, val uint64), key, value, aux, best uint64) {
	store(f.ValueAddr(key), value)
	store(f.AuxAddr(key), aux)
	store(f.BestAddr(key), best)
}

// Value loads a key's settled value (Unsettled if not yet settled).
func (f *Frontier) Value(e guest.Env, key uint64) uint64 { return e.Load(f.ValueAddr(key)) }

// Aux loads a key's scratch word.
func (f *Frontier) Aux(e guest.Env, key uint64) uint64 { return e.Load(f.AuxAddr(key)) }

// SetAux stores a key's scratch word.
func (f *Frontier) SetAux(e guest.Env, key, v uint64) { e.Store(f.AuxAddr(key), v) }

// bucket rounds a priority down to its Delta bucket.
func (f *Frontier) bucket(prio uint64) uint64 {
	if f.Delta > 1 {
		return prio - prio%f.Delta
	}
	return prio
}

// Push enqueues key's handler at priority prio, pruned lazily: the entry
// is dropped at the source when an already-pending entry has an equal or
// better timestamp (it would reach the key first anyway and see the same
// or fresher state). The handler receives (key, prio) as args. The push
// timestamp is the prio's bucket, clamped up to the pusher's timestamp.
func (f *Frontier) Push(e guest.TaskEnv, key, prio uint64) {
	ts := f.bucket(prio)
	if now := e.Timestamp(); ts < now {
		ts = now
	}
	if ts < e.Load(f.BestAddr(key)) {
		e.Store(f.BestAddr(key), ts)
		// Spatial hint: the key — its handler entries and state line share
		// a home tile under hint-based mappers. The low bit namespaces key
		// hints from any other hint space the app uses.
		e.EnqueueHinted(f.Fn, ts, key<<1, [3]uint64{key, prio})
	}
}

// PushMin is the relaxation primitive of label-correcting kernels
// (delta-stepping): the value word carries the key's best known priority
// (tentative distance), and PushMin improves it to prio when that is a
// strict improvement, then Pushes the handler at the new priority. The
// handler reads the value word for the true priority — the task timestamp
// is only its bucket — so coarse Deltas cost extra (aborted or pruned)
// entries, never precision.
func (f *Frontier) PushMin(e guest.TaskEnv, key, prio uint64) {
	e.Work(1)
	if prio < e.Load(f.ValueAddr(key)) {
		e.Store(f.ValueAddr(key), prio)
		f.Push(e, key, prio)
	}
}

// Seed enqueues key's handler unconditionally (no best-pending check):
// the root entries of a run, whose Init already recorded best = prio.
// Callers must seed at priorities >= their own timestamp.
func (f *Frontier) Seed(e guest.TaskEnv, key, prio uint64) {
	e.EnqueueHinted(f.Fn, f.bucket(prio), key<<1, [3]uint64{key, prio})
}

// TrySettle claims a key at the handler's timestamp: the first handler
// entry to reach an unsettled key settles it (value = timestamp) and
// returns true; stale entries — the key settled at an earlier priority —
// return false and must retire without touching anything else. This is
// the peel/visit guard of priority-ordered kernels.
func (f *Frontier) TrySettle(e guest.TaskEnv) (key uint64, settled bool) {
	key = e.Arg(0)
	e.Work(2)
	if e.Load(f.ValueAddr(key)) != Unsettled {
		return key, false
	}
	e.Store(f.ValueAddr(key), e.Timestamp())
	return key, true
}

// ClearPending marks a key as having no pending entry, so the next Push
// at any priority re-enqueues it. Monotone kernels that settle each key
// once (peeling) never need this; kernels that keep improving a key
// (delta-stepping relaxations) call it at handler entry — the handler is
// consuming the best pending entry, so later improvements must be free to
// push again.
func (f *Frontier) ClearPending(e guest.TaskEnv, key uint64) {
	e.Store(f.BestAddr(key), NeverPushed)
}

// ---------------------------------------------------------------------------
// Spawners: fanning an index range out as tasks (one frontier entry per
// key, one task per edge, input or transaction).
// ---------------------------------------------------------------------------

// SpawnRange is the body of a range-spawner task over [Arg(0), Arg(1)):
// small ranges enqueue leaves directly, larger ones split into up to
// guest.MaxChildren sub-spawners at the parent's timestamp, so no task
// passes the hardware child limit (§4.1). spawnFn is the spawner's own
// function id (so spawners re-enqueue themselves); leaf enqueues item i.
func SpawnRange(e guest.TaskEnv, spawnFn guest.FnID, leaf func(e guest.TaskEnv, i uint64)) {
	lo, hi := e.Arg(0), e.Arg(1)
	n := hi - lo
	e.Work(4)
	if n <= guest.MaxChildren {
		for i := lo; i < hi; i++ {
			leaf(e, i)
		}
		return
	}
	chunk := (n + guest.MaxChildren - 1) / guest.MaxChildren
	for s := lo; s < hi; s += chunk {
		end := s + chunk
		if end > hi {
			end = hi
		}
		e.EnqueueArgs(spawnFn, e.Timestamp(), [3]uint64{s, end})
	}
}

// StaticOrder seeds a frontier whose priorities are a precomputed
// permutation: entry r of the rank array is the key with priority r
// (rank-ordered kernels like greedy coloring, where the priority is the
// rank itself and every key is seeded exactly once, so no per-key state
// line is needed).
type StaticOrder struct {
	Ord swrt.Array // Ord[r] = key with rank r
	Fn  guest.FnID // handler: fn(key) at timestamp r
}

// SpawnLeaf seeds rank r's key at priority r. The enqueue hint is the key
// itself (handler footprints cluster by key, not rank).
func (so StaticOrder) SpawnLeaf(e guest.TaskEnv, r uint64) {
	v := so.Ord.Get(e, r)
	e.Work(1)
	e.EnqueueHinted(so.Fn, r, v, [3]uint64{v})
}
