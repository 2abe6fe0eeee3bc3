package bench

import (
	"fmt"
	"sort"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// Color computes a priority-ordered greedy graph coloring: vertices are
// ranked largest-degree-first (Welsh–Powell) and each takes the smallest
// color absent among its earlier-ranked neighbors. The result is exactly
// the sequential greedy coloring — a deterministic fixpoint every flavor
// must reproduce. Sequential greedy is trivially ordered; the
// software-parallel baseline runs PBBS-style deterministic rounds (each
// round colors every vertex whose earlier-ranked neighbors are all
// colored), while Swarm just timestamps vertex tasks with their rank and
// lets speculation color independent vertices out of order.
type Color struct {
	runner
	g     *graph.Graph
	order []uint32 // order[r] = vertex with rank r (largest-degree-first)
	rank  []uint64 // rank[v]
	eOff  []uint32 // CSR of earlier-ranked neighbors
	eDst  []uint32
	ref   []uint64 // reference greedy colors
	words uint64   // mex bitmask words (covers maxDeg+1 colors)
}

func init() {
	Register(AppMeta{
		Name:    "color",
		Order:   7,
		Summary: "priority-ordered greedy graph coloring (largest-degree-first)",
	}, func(s Scale) *Color {
		switch s {
		case ScaleTiny:
			return NewColor(150, 600, 11)
		case ScaleSmall:
			return NewColor(800, 4000, 11)
		case ScaleLarge:
			return NewColorGraph(graph.MustLoad("random-16000-96000-s11", func() *graph.Graph {
				return graph.Random(16000, 96000, 11)
			}))
		default:
			return NewColor(4000, 24000, 11)
		}
	})
}

// NewColor builds the benchmark on a random connected graph with n nodes
// and ~m arcs per direction.
func NewColor(n, m int, seed int64) *Color {
	return NewColorGraph(graph.Random(n, m, seed))
}

// NewColorGraph builds the benchmark on an arbitrary graph (weights, if
// any, are ignored).
func NewColorGraph(g *graph.Graph) *Color {
	n := g.N
	b := &Color{g: g}
	b.runner = runner{b}
	// Largest-degree-first rank, ties by vertex id (deterministic).
	b.order = make([]uint32, n)
	for v := range b.order {
		b.order[v] = uint32(v)
	}
	sort.SliceStable(b.order, func(i, j int) bool {
		du, dv := g.Degree(int(b.order[i])), g.Degree(int(b.order[j]))
		if du != dv {
			return du > dv
		}
		return b.order[i] < b.order[j]
	})
	b.rank = make([]uint64, n)
	for r, v := range b.order {
		b.rank[v] = uint64(r)
	}
	// CSR of earlier-ranked neighbors: the only ones greedy consults.
	b.eOff = make([]uint32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := g.Neighbors(v)
		for a := lo; a < hi; a++ {
			if b.rank[g.Dst[a]] < b.rank[v] {
				b.eOff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		b.eOff[v+1] += b.eOff[v]
	}
	b.eDst = make([]uint32, b.eOff[n])
	cursor := append([]uint32(nil), b.eOff[:n]...)
	for v := 0; v < n; v++ {
		lo, hi := g.Neighbors(v)
		for a := lo; a < hi; a++ {
			if w := g.Dst[a]; b.rank[w] < b.rank[v] {
				b.eDst[cursor[v]] = w
				cursor[v]++
			}
		}
	}
	b.words = (uint64(g.MaxDegree()) + 2 + 63) / 64
	// Reference: sequential greedy in rank order.
	b.ref = make([]uint64, n)
	mask := make([]uint64, b.words)
	for _, v32 := range b.order {
		v := int(v32)
		for i := range mask {
			mask[i] = 0
		}
		for a := b.eOff[v]; a < b.eOff[v+1]; a++ {
			c := b.ref[b.eDst[a]]
			mask[c>>6] |= 1 << (c & 63)
		}
		b.ref[v] = mex(mask)
	}
	return b
}

// mex returns the smallest index whose bit is clear.
func mex(mask []uint64) uint64 {
	for i, w := range mask {
		if w != ^uint64(0) {
			j := uint64(0)
			for w&1 == 1 {
				w >>= 1
				j++
			}
			return uint64(i)*64 + j
		}
	}
	return uint64(len(mask)) * 64
}

// Name implements Benchmark.
func (b *Color) Name() string { return "color" }

// guestColor is the layout shared by all flavors: the rank order, the
// earlier-neighbor CSR and the per-vertex color array (Unvisited =
// uncolored). The mex scratch bitmask lives in registers (it is bounded
// by the max degree), so only real sharing — neighbor colors — touches
// memory.
type guestColor struct {
	ord  swrt.Array // ord[r] = vertex with rank r
	eoff swrt.Array
	edst swrt.Array
	col  swrt.Array
}

func (b *Color) pack(alloc func(uint64) uint64, store func(addr, val uint64)) guestColor {
	n := uint64(b.g.N)
	g := guestColor{
		ord:  swrt.NewArray(alloc, n),
		eoff: swrt.NewArray(alloc, n+1),
		edst: swrt.NewArray(alloc, uint64(len(b.eDst))),
		col:  swrt.NewArray(alloc, n),
	}
	for r, v := range b.order {
		store(g.ord.Addr(uint64(r)), uint64(v))
	}
	for i, o := range b.eOff {
		store(g.eoff.Addr(uint64(i)), uint64(o))
	}
	for i, w := range b.eDst {
		store(g.edst.Addr(uint64(i)), uint64(w))
	}
	for v := uint64(0); v < n; v++ {
		store(g.col.Addr(v), graph.Unvisited)
	}
	return g
}

func (b *Color) verify(load func(uint64) uint64, g guestColor) error {
	for v := 0; v < b.g.N; v++ {
		if got := load(g.col.Addr(uint64(v))); got != b.ref[v] {
			return fmt.Errorf("color: color[%d] = %d, want %d (greedy reference)", v, got, b.ref[v])
		}
	}
	return nil
}

// colorVertex performs one greedy step: mex over the earlier-ranked
// neighbors' colors, accumulated into the caller's scratch mask
// (register state, not simulated memory — the serial body reuses one
// mask across iterations, while each Swarm task execution needs its own:
// task coroutines suspend at every Load, so concurrent tasks would
// corrupt shared scratch). Colors above the bitmask (i.e. Unvisited,
// read speculatively before the neighbor commits) are ignored; conflict
// detection squashes the task when the real color arrives.
func (b *Color) colorVertex(e guest.Env, g guestColor, v uint64, mask []uint64) {
	lo := g.eoff.Get(e, v)
	hi := g.eoff.Get(e, v+1)
	clear(mask)
	e.Work(3)
	for a := lo; a < hi; a++ {
		w := g.edst.Get(e, a)
		c := g.col.Get(e, w)
		e.Work(2)
		if c < b.words*64 {
			mask[c>>6] |= 1 << (c & 63)
		}
	}
	e.Work(uint64(len(mask)))
	g.col.Set(e, v, mex(mask))
}

// SwarmApp implements Benchmark: task = color(v), timestamp = rank(v),
// seeded through the frontier's static-order spawner (the priority is the
// precomputed Welsh–Powell rank, each vertex enters the frontier exactly
// once). Tasks read only earlier-ranked neighbors, so every conflict is a
// true rank-order dependence; independent vertices color in parallel.
func (b *Color) SwarmApp() SwarmApp {
	var g guestColor
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		g = b.pack(ab.Alloc, ab.Store)
		var spawn, color guest.FnID
		so := frontier.StaticOrder{Ord: g.ord}
		spawn = ab.Fn("spawn", func(e guest.TaskEnv) {
			frontier.SpawnRange(e, spawn, so.SpawnLeaf)
		})
		color = ab.Fn("color", func(e guest.TaskEnv) {
			b.colorVertex(e, g, e.Arg(0), make([]uint64, b.words))
		})
		so.Fn = color
		return []guest.TaskDesc{{Fn: spawn, TS: 0, Args: [3]uint64{0, uint64(b.g.N)}}}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, g) }
	return app
}

func (b *Color) serialBody(e guest.Env, g guestColor, iterMark func()) {
	n := uint64(b.g.N)
	mask := make([]uint64, b.words) // direct mode: iterations never interleave
	for r := uint64(0); r < n; r++ {
		iterMark()
		v := g.ord.Get(e, r)
		e.Work(1)
		b.colorVertex(e, g, v, mask)
	}
}

// SerialApp implements Benchmark: greedy in rank order.
func (b *Color) SerialApp() SerialApp {
	var g guestColor
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			g = b.pack(alloc, store)
			return func(e guest.Env, mark func()) { b.serialBody(e, g, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}

// ParallelApp implements Parallel: PBBS-style deterministic rounds
// (speculative_for over the rank order). Each round every remaining
// vertex whose earlier-ranked neighbors are all colored takes its greedy
// color; the rest retry next round. The result equals sequential
// greedy's, but each round pays a full pass plus barriers — the
// reservation analogue of msf's baseline (§6.2).
func (b *Color) ParallelApp() ParallelApp {
	var g guestColor
	return ParallelApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64), threads uint64) guest.ThreadFn {
			g = b.pack(alloc, store)
			seed := make([]uint64, len(b.order))
			for r, v := range b.order {
				seed[r] = uint64(v)
			}
			wl := swrt.NewWorklist(alloc, store, uint64(b.g.N), seed)
			bar := swrt.NewBarrier(alloc, threads)
			return func(e guest.ThreadEnv) {
				var sense uint64
				mask := make([]uint64, b.words) // per-thread mex scratch
				for {
					r, ok := wl.Round(e)
					if !ok {
						return
					}
					wl.Drain(e, r, 8, func(v uint64) {
						lo := e.Load(g.eoff.Addr(v))
						hi := e.Load(g.eoff.Addr(v + 1))
						clear(mask)
						e.Work(2)
						for a := lo; a < hi; a++ {
							w := e.Load(g.edst.Addr(a))
							c := e.Load(g.col.Addr(w))
							e.Work(2)
							if c == graph.Unvisited {
								wl.Push(e, r, v) // not ready: retry next round
								return
							}
							mask[c>>6] |= 1 << (c & 63)
						}
						e.Work(uint64(len(mask)))
						e.Store(g.col.Addr(v), mex(mask))
					})
					bar.Wait(e, &sense)
					if e.ID() == 0 {
						wl.Swap(e, r)
					}
					bar.Wait(e, &sense)
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}
