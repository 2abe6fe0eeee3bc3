package bench

import (
	"fmt"
	"math"

	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// AStar routes between two points of a road map with the A* algorithm
// (the paper uses the Germany road network from OpenStreetMap). Timestamps
// are quantized f = g + h scores; the Euclidean-distance heuristic is
// consistent because edge weights are at least the scaled Euclidean
// distance (see graph.RoadNet). As in the paper, there is no software-only
// parallel version: parallel A* implementations sacrifice solution quality
// for speed (§5).
type AStar struct {
	runner
	g           *graph.Graph
	src, target int
	ref         []uint64 // Dijkstra distances (ground truth)
}

func init() {
	Register(AppMeta{
		Name:    "astar",
		Order:   2,
		Summary: "A* route search on a road network with coordinates",
		Figures: []string{"fig18"},
	}, func(s Scale) *AStar {
		switch s {
		case ScaleTiny:
			return NewAStar(18, 18, 4)
		case ScaleSmall:
			return NewAStar(40, 40, 4)
		default:
			return NewAStar(90, 90, 4)
		}
	})
}

// NewAStar builds the benchmark on a rows x cols road network, routing
// corner to corner.
func NewAStar(rows, cols int, seed int64) *AStar {
	g := graph.RoadNet(rows, cols, seed)
	b := &AStar{g: g, src: 0, target: g.N - 1, ref: graph.Dijkstra(g, 0)}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *AStar) Name() string { return "astar" }

// verify checks that every settled node carries its true shortest-path
// distance and that the target was settled. (Which nodes beyond the
// pruning frontier get settled legitimately varies between flavors and
// equal-timestamp orders.)
func (b *AStar) verify(load func(uint64) uint64, gc graph.GuestCSR) error {
	settled := 0
	for u := 0; u < b.g.N; u++ {
		got := load(gc.DistAddr(uint64(u)))
		if got == graph.Unvisited {
			continue
		}
		settled++
		if got != b.ref[u] {
			return fmt.Errorf("astar: dist[%d] = %d, want %d", u, got, b.ref[u])
		}
	}
	if got := load(gc.DistAddr(uint64(b.target))); got != b.ref[b.target] {
		return fmt.Errorf("astar: target distance = %d, want %d", got, b.ref[b.target])
	}
	if settled == 0 {
		return fmt.Errorf("astar: nothing settled")
	}
	return nil
}

// heurCost models the ~40 instructions of coordinate loads, subtraction,
// multiplication and square root per heuristic evaluation; astar's tasks
// are an order of magnitude longer than sssp's (Table 1: 195 vs 32).
const heurCost = 55

// fixedToFloat converts a 16.16 fixed-point guest coordinate.
func fixedToFloat(v uint64) float64 { return float64(int64(v)) / 65536 }

// heuristic computes the admissible lower bound from (x, y) to the target
// coordinates, in weight units.
func heuristic(x, y, tx, ty float64) uint64 {
	dx, dy := x-tx, y-ty
	return uint64(math.Sqrt(dx*dx+dy*dy) * graph.CoordScale)
}

// SwarmApp implements Benchmark: task = visit(node, g), timestamp = f.
func (b *AStar) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		target := uint64(b.target)
		var visit guest.FnID
		visit = ab.Fn("visit", func(e guest.TaskEnv) {
			node, gdist := e.Arg(0), e.Arg(1)
			e.Work(2)
			if e.Load(gc.DistAddr(node)) != graph.Unvisited {
				return
			}
			// Prune: once the target is settled, no task ordered at or
			// after it can improve the route.
			if node != target {
				e.Work(1)
				if e.Load(gc.DistAddr(target)) != graph.Unvisited {
					return
				}
			}
			e.Store(gc.DistAddr(node), gdist)
			if node == target {
				return
			}
			e.Work(20) // node expansion bookkeeping
			tx := fixedToFloat(e.Load(gc.XAddr(target)))
			ty := fixedToFloat(e.Load(gc.YAddr(target)))
			lo := e.Load(gc.OffAddr(node))
			hi := e.Load(gc.OffAddr(node + 1))
			e.Work(2)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				cx := fixedToFloat(e.Load(gc.XAddr(child)))
				cy := fixedToFloat(e.Load(gc.YAddr(child)))
				e.Work(heurCost)
				g2 := gdist + w
				f := g2 + heuristic(cx, cy, tx, ty)
				// Spatial hint: the destination vertex (see sssp).
				e.EnqueueHinted(visit, f, child, [3]uint64{child, g2})
			}
		})
		// Root f = h(src).
		sx, sy := b.g.X[b.src], b.g.Y[b.src]
		tx, ty := b.g.X[b.target], b.g.Y[b.target]
		f0 := heuristic(sx, sy, tx, ty)
		return []guest.TaskDesc{guest.TaskDesc{Fn: visit, TS: f0, Args: [3]uint64{uint64(b.src), 0}}.WithHint(uint64(b.src))}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, gc) }
	return app
}

func (b *AStar) serialBody(e guest.Env, gc graph.GuestCSR, pq swrt.Heap, iterMark func()) {
	target := uint64(b.target)
	tx := fixedToFloat(e.Load(gc.XAddr(target)))
	ty := fixedToFloat(e.Load(gc.YAddr(target)))
	sx := fixedToFloat(e.Load(gc.XAddr(uint64(b.src))))
	sy := fixedToFloat(e.Load(gc.YAddr(uint64(b.src))))
	e.Work(heurCost)
	// Heap holds (f, node) pairs; g is recovered as f - h(node).
	pq.Push(e, heuristic(sx, sy, tx, ty), uint64(b.src))
	gOf := func(f uint64, x, y float64) uint64 { return f - heuristic(x, y, tx, ty) }
	for {
		iterMark()
		f, u, ok := pq.PopMin(e)
		if !ok {
			return
		}
		e.Work(1)
		if e.Load(gc.DistAddr(u)) != graph.Unvisited {
			continue
		}
		ux := fixedToFloat(e.Load(gc.XAddr(u)))
		uy := fixedToFloat(e.Load(gc.YAddr(u)))
		e.Work(heurCost)
		g := gOf(f, ux, uy)
		e.Store(gc.DistAddr(u), g)
		if u == target {
			return
		}
		lo := e.Load(gc.OffAddr(u))
		hi := e.Load(gc.OffAddr(u + 1))
		e.Work(2)
		for i := lo; i < hi; i++ {
			v := e.Load(gc.DstAddr(i))
			e.Work(1)
			if e.Load(gc.DistAddr(v)) != graph.Unvisited {
				continue
			}
			w := e.Load(gc.WAddr(i))
			vx := fixedToFloat(e.Load(gc.XAddr(v)))
			vy := fixedToFloat(e.Load(gc.YAddr(v)))
			e.Work(heurCost)
			pq.Push(e, g+w+heuristic(vx, vy, tx, ty), v)
		}
	}
}

// SerialApp implements Benchmark: tuned serial A* with a binary heap keyed
// by f, stopping when the target is settled.
func (b *AStar) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			pq := swrt.NewHeap(alloc, uint64(b.g.M())+2)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, pq, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, gc) },
	}
}
