package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// KCore computes the k-core decomposition of a Kronecker graph by peeling
// in degree order (Matula–Beck): repeatedly remove a minimum-degree
// vertex; its core number is the running maximum of removal degrees. The
// peel is ordered — each removal lowers neighbor degrees and can change
// who is removed next — which serializes software schedulers, while most
// removals touch disjoint neighborhoods: exactly the fine-grain ordered
// parallelism priority-ordered graph frameworks (PriorityGraph/Julienne)
// target. The Swarm version's timestamps are peel levels; the
// software-parallel version is bucket-synchronous peeling (all vertices
// of the current level removed in rounds of parallel sub-steps).
type KCore struct {
	runner
	g      *graph.Graph
	ref    []uint64 // reference core numbers
	maxDeg uint64
}

func init() {
	Register(AppMeta{
		Name:    "kcore",
		Order:   6,
		Summary: "k-core decomposition by peeling in degree order",
	}, func(s Scale) *KCore {
		switch s {
		case ScaleTiny:
			return NewKCore(7, 8, 9)
		case ScaleSmall:
			return NewKCore(9, 12, 9)
		case ScaleLarge:
			return NewKCoreGraph(graph.MustLoad("kron-14-16-s9", func() *graph.Graph {
				n, edges := graph.Kronecker(14, 16, 9)
				return graph.FromEdges(n, edges, true)
			}))
		default:
			return NewKCore(11, 16, 9)
		}
	})
}

// NewKCore builds the benchmark on a Kronecker graph with 2^logN nodes.
func NewKCore(logN, avgDeg int, seed int64) *KCore {
	n, edges := graph.Kronecker(logN, avgDeg, seed)
	return NewKCoreGraph(graph.FromEdges(n, edges, true))
}

// NewKCoreGraph builds the benchmark on an arbitrary graph.
func NewKCoreGraph(g *graph.Graph) *KCore {
	b := &KCore{g: g, ref: graph.CoreNumbers(g), maxDeg: uint64(g.MaxDegree())}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *KCore) Name() string { return "kcore" }

// All flavors share the packed CSR graph; serial and parallel keep core
// numbers in its Dist array (Unvisited until a vertex is peeled). Degree
// bookkeeping is per-flavor: the serial peel's buckets carry degrees
// internally, the Swarm version pads per-vertex state to a line, and the
// bucket-synchronous baseline keeps a dense counter array.

func (b *KCore) verify(load func(uint64) uint64, gc graph.GuestCSR) error {
	for v := 0; v < b.g.N; v++ {
		if got := load(gc.DistAddr(uint64(v))); got != b.ref[v] {
			return fmt.Errorf("kcore: core[%d] = %d, want %d", v, got, b.ref[v])
		}
	}
	return nil
}

// SwarmApp implements Benchmark: task = peel(v), timestamp = peel level,
// expressed on the bucketed-priority frontier (delta 1: exact degree
// order). A spawner tree seeds one entry per vertex at its initial
// degree; peeling v at level k decrements each unpeeled neighbor w and
// Pushes it at its new degree — the frontier clamps the priority to the
// current level and lazily prunes entries that cannot win. The earliest
// entry to reach an unpeeled vertex settles its core number; stale
// entries see it settled and retire.
func (b *KCore) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	var fr *frontier.Frontier // set by Build; read by Verify
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		alloc, store := ab.Alloc, ab.Store
		gc = graph.Pack(b.g, alloc, store)
		var spawn, peel, relax, decr guest.FnID
		// Conflict detection is line-granular, and the peel's per-vertex
		// state — core number (frontier value), degree counter (aux),
		// earliest pending entry (best) — is its entire hot set (one
		// read-modify-write per removed edge): the frontier lays all three
		// out on one private line per vertex so only true per-vertex
		// dependences conflict.
		n := uint64(b.g.N)
		fr = frontier.New(alloc, n, 1)
		for v := uint64(0); v < n; v++ {
			d := uint64(b.g.Degree(int(v)))
			// best = d: the spawner seeds the root entry at d.
			fr.Init(store, v, frontier.Unsettled, d, d)
		}
		spawn = ab.Fn("spawn", func(e guest.TaskEnv) {
			frontier.SpawnRange(e, spawn, func(e guest.TaskEnv, i uint64) {
				d := fr.Aux(e, i)
				e.Work(1)
				fr.Seed(e, i, d)
			})
		})
		// decrement(i) removes arc i's edge from its target: a tiny task
		// whose footprint is one arc word plus one vertex line, so an
		// abort squashes a single edge removal, not a whole
		// neighborhood. Push re-enqueues the target's peel entry when the
		// new (degree, level) priority beats every pending one.
		// (Registered below, after peel/relax, to keep the table order.)
		decrBody := func(e guest.TaskEnv) {
			w := e.Load(gc.DstAddr(e.Arg(0)))
			e.Work(2)
			if fr.Value(e, w) != frontier.Unsettled {
				return // edge already removed with w
			}
			d := fr.Aux(e, w) - 1
			fr.SetAux(e, w, d)
			fr.Push(e, w, d)
		}
		// relaxArcs fans arcs [lo, hi) out as decrement tasks at the
		// current level, seven at a time plus a continuation — Kronecker
		// hubs have hundreds of neighbors, far past the 8-child hardware
		// limit (§4.1), so removals chain spawner tasks at their level.
		relaxArcs := func(e guest.TaskEnv, lo, hi uint64) {
			end := lo + guest.MaxChildren - 1
			if end > hi {
				end = hi
			}
			for i := lo; i < end; i++ {
				e.Work(1)
				// Spatial hint: the arc-array block — eight consecutive
				// decrements read the same dst-array line.
				e.EnqueueHinted(decr, e.Timestamp(), i/8<<1|1, [3]uint64{i})
			}
			if end < hi {
				e.EnqueueArgs(relax, e.Timestamp(), [3]uint64{end, hi})
			}
		}
		peel = ab.Fn("peel", func(e guest.TaskEnv) {
			v, settled := fr.TrySettle(e)
			if !settled {
				return // already peeled at an earlier level
			}
			lo := e.Load(gc.OffAddr(v))
			hi := e.Load(gc.OffAddr(v + 1))
			e.Work(6) // removal bookkeeping
			if lo < hi {
				relaxArcs(e, lo, hi)
			}
		})
		relax = ab.Fn("relax", func(e guest.TaskEnv) {
			relaxArcs(e, e.Arg(0), e.Arg(1))
		})
		decr = ab.Fn("decrement", decrBody)
		fr.Fn = peel
		return []guest.TaskDesc{{Fn: spawn, TS: 0, Args: [3]uint64{0, uint64(b.g.N)}}}
	}
	app.Verify = func(load func(uint64) uint64) error {
		for v := 0; v < b.g.N; v++ {
			if got := load(fr.ValueAddr(uint64(v))); got != b.ref[v] {
				return fmt.Errorf("kcore: core[%d] = %d, want %d", v, got, b.ref[v])
			}
		}
		return nil
	}
	return app
}

// buckets builds the serial peel's degree-bucket scheduler.
func (b *KCore) buckets(alloc func(uint64) uint64, store func(addr, val uint64)) swrt.Buckets {
	bk := swrt.NewBuckets(alloc, uint64(b.g.N), b.maxDeg)
	degs := make([]uint64, b.g.N)
	for v := 0; v < b.g.N; v++ {
		degs[v] = uint64(b.g.Degree(v))
	}
	bk.InitDirect(store, degs)
	return bk
}

// serialBody peels vertices in current-degree order; iterMark brackets
// the per-vertex removals for the oracle's TLS analysis.
func (b *KCore) serialBody(e guest.Env, gc graph.GuestCSR, bk swrt.Buckets, iterMark func()) {
	n := uint64(b.g.N)
	k := uint64(0)
	for i := uint64(0); i < n; i++ {
		iterMark()
		v := bk.Vert(e, i)
		d := bk.Deg(e, v)
		e.Work(3)
		if d > k {
			k = d
		}
		e.Store(gc.DistAddr(v), k)
		lo := e.Load(gc.OffAddr(v))
		hi := e.Load(gc.OffAddr(v + 1))
		for a := lo; a < hi; a++ {
			w := e.Load(gc.DstAddr(a))
			e.Work(1)
			if e.Load(gc.DistAddr(w)) != graph.Unvisited {
				continue
			}
			if bk.Deg(e, w) > d {
				bk.DecreaseKey(e, w)
			}
		}
	}
}

// SerialApp implements Benchmark: tuned serial Matula–Beck peeling over
// the swrt.Buckets degree structure (O(1) decrease-key, O(n+m) total).
func (b *KCore) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			bk := b.buckets(alloc, store)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, bk, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, gc) },
	}
}

// ParallelApp implements Parallel: bucket-synchronous peeling (the
// Julienne-style software-parallel baseline). Levels k = 0, 1, ... are
// processed in order; the vertex range is scanned once per level to seed
// that level's frontier, and from there sub-rounds are neighbor-driven:
// an atomic degree decrement whose old value is exactly k+1 has just
// dropped its vertex into the current bucket, so the decrementing thread
// peels it and appends it for the next sub-round, with a barrier between
// sub-rounds. Parallelism is still limited to one level's frontier at a
// time — the peel analogue of level-synchronous PBFS (§6.2) — but no
// work beyond the per-level scan is proportional to n.
func (b *KCore) ParallelApp() ParallelApp {
	var gc graph.GuestCSR
	return ParallelApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64), threads uint64) guest.ThreadFn {
			gc = graph.Pack(b.g, alloc, store)
			n := uint64(b.g.N)
			deg := swrt.NewArray(alloc, n) // current degrees, atomically decremented
			for v := uint64(0); v < n; v++ {
				store(deg.Addr(v), uint64(b.g.Degree(int(v))))
			}
			// Every vertex is peeled (appended) exactly once, so one
			// n-entry array holds the whole peel order; sub-rounds are
			// segments of it.
			peeled := swrt.NewArray(alloc, n)
			// Control block: [k, tail, scanIdx, procIdx, roundStart,
			// roundEnd, scanNeeded].
			ctl := alloc(64)
			store(ctl+48, 1) // first level needs a seeding scan
			bar := swrt.NewBarrier(alloc, threads)
			return func(e guest.ThreadEnv) {
				var sense uint64
				for {
					k := e.Load(ctl)
					if e.Load(ctl+48) != 0 {
						// Seed: scan the vertex range once per level for
						// unpeeled deg <= k.
						swrt.Claim(e, ctl+16, n, 32, func(v uint64) {
							e.Work(1)
							if e.Load(gc.DistAddr(v)) != graph.Unvisited {
								return
							}
							if e.Load(deg.Addr(v)) <= k {
								e.Store(gc.DistAddr(v), k)
								slot := e.FetchAdd(ctl+8, 1)
								e.Store(peeled.Addr(slot), v)
							}
						})
					}
					bar.Wait(e, &sense)
					if e.ID() == 0 {
						e.Store(ctl+40, e.Load(ctl+8))  // freeze this sub-round's end
						e.Store(ctl+24, e.Load(ctl+32)) // reset claim cursor to its start
					}
					bar.Wait(e, &sense)
					end := e.Load(ctl + 40)
					// Remove: decrement unpeeled neighbors of this
					// sub-round's segment; a decrement from k+1 discovers a
					// newly eligible vertex and appends it past end for the
					// next sub-round.
					swrt.Claim(e, ctl+24, end, 4, func(s uint64) {
						v := peeled.Get(e, s)
						lo := e.Load(gc.OffAddr(v))
						hi := e.Load(gc.OffAddr(v + 1))
						e.Work(2)
						for a := lo; a < hi; a++ {
							w := e.Load(gc.DstAddr(a))
							e.Work(1)
							if e.Load(gc.DistAddr(w)) != graph.Unvisited {
								continue
							}
							if old := e.FetchAdd(deg.Addr(w), ^uint64(0)); old == k+1 {
								e.Store(gc.DistAddr(w), k)
								slot := e.FetchAdd(ctl+8, 1)
								e.Store(peeled.Addr(slot), w)
							}
						}
					})
					bar.Wait(e, &sense)
					if e.ID() == 0 {
						if e.Load(ctl+8) == end { // no discoveries: level exhausted
							e.Store(ctl, k+1)
							e.Store(ctl+16, 0)
							e.Store(ctl+48, 1)
						} else {
							e.Store(ctl+48, 0)
						}
						e.Store(ctl+32, end) // next sub-round starts where this ended
					}
					bar.Wait(e, &sense)
					if e.Load(ctl+8) == n {
						return
					}
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, gc) },
	}
}
