package bench

import (
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// SSSP is Dijkstra's single-source shortest paths (§2.1, Fig 1) on a road
// network (the paper uses the East-USA road graph). The Swarm version's
// timestamps are tentative distances; the software-parallel comparison is
// Bellman-Ford, which trades wasted work for parallelism (§6.2).
type SSSP struct {
	runner
	g   *graph.Graph
	src int
	ref []uint64
}

func init() {
	Register(AppMeta{
		Name:    "sssp",
		Order:   1,
		Summary: "Dijkstra single-source shortest paths on a road network",
	}, func(s Scale) *SSSP {
		switch s {
		case ScaleTiny:
			return NewSSSP(16, 16, 3)
		case ScaleSmall:
			return NewSSSP(36, 36, 3)
		case ScaleLarge:
			return NewSSSPGraph(graph.MustLoad("roadnet-320x320-s3", func() *graph.Graph {
				return graph.RoadNet(320, 320, 3)
			}))
		default:
			return NewSSSP(80, 80, 3)
		}
	})
}

// NewSSSP builds the benchmark on a rows x cols road network.
func NewSSSP(rows, cols int, seed int64) *SSSP {
	return NewSSSPGraph(graph.RoadNet(rows, cols, seed))
}

// NewSSSPGraph builds the benchmark on an arbitrary weighted graph
// (unweighted real inputs get unit weights).
func NewSSSPGraph(g *graph.Graph) *SSSP {
	g.EnsureWeights()
	b := &SSSP{g: g, src: 0, ref: graph.Dijkstra(g, 0)}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *SSSP) Name() string { return "sssp" }

// SwarmApp implements Benchmark: task = visit(node), timestamp = tentative
// distance — exactly Fig 1(a) without the software priority queue.
// Profile target (Table 1): ~32 instructions, ~6 words read, ~0.4 written.
func (b *SSSP) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		var visit guest.FnID
		visit = ab.Fn("visit", func(e guest.TaskEnv) {
			node := e.Arg(0)
			e.Work(2)
			if e.Load(gc.DistAddr(node)) != graph.Unvisited {
				return // visited path: already settled by a shorter path
			}
			// Non-visited path: settle and relax the out-edges.
			e.Store(gc.DistAddr(node), e.Timestamp())
			lo := e.Load(gc.OffAddr(node))
			hi := e.Load(gc.OffAddr(node + 1))
			e.Work(14) // relaxation bookkeeping (Table 1: ~32 instrs)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				e.Work(2)
				// Spatial hint: the destination vertex, so all relaxations
				// of one vertex share a home tile under hint-based mappers.
				e.EnqueueHinted(visit, e.Timestamp()+w, child, [3]uint64{child})
			}
		})
		return []guest.TaskDesc{guest.TaskDesc{Fn: visit, TS: 0, Args: [3]uint64{uint64(b.src)}}.WithHint(uint64(b.src))}
	}
	app.Verify = func(load func(uint64) uint64) error { return verifyDist("sssp", load, gc, b.ref) }
	return app
}

// SerialApp implements Benchmark: Fig 1(a)'s sequential Dijkstra.
func (b *SSSP) SerialApp() SerialApp { return dijkstraSerial("sssp", b.g, b.src, b.ref) }

// dijkstraSerial is the serial flavor sssp and dsssp share: Fig 1(a)'s
// sequential Dijkstra with a binary-heap priority queue in guest memory,
// one iteration per heap pop, verified against the host distances ref.
func dijkstraSerial(app string, g *graph.Graph, src int, ref []uint64) SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(g, alloc, store)
			pq := swrt.NewHeap(alloc, uint64(g.M())+2)
			return func(e guest.Env, iterMark func()) {
				pq.Push(e, 0, uint64(src))
				for {
					iterMark()
					d, u, ok := pq.PopMin(e)
					if !ok {
						return
					}
					e.Work(1)
					if e.Load(gc.DistAddr(u)) != graph.Unvisited {
						continue
					}
					e.Store(gc.DistAddr(u), d)
					lo := e.Load(gc.OffAddr(u))
					hi := e.Load(gc.OffAddr(u + 1))
					e.Work(2)
					for i := lo; i < hi; i++ {
						v := e.Load(gc.DstAddr(i))
						e.Work(1)
						if e.Load(gc.DistAddr(v)) == graph.Unvisited {
							w := e.Load(gc.WAddr(i))
							pq.Push(e, d+w, v)
						}
					}
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return verifyDist(app, load, gc, ref) },
	}
}

// ParallelApp implements Parallel: Bellman-Ford with shared round-based
// worklists (as in the paper's Galois-derived baseline): threads relax
// nodes out of priority order, revisiting nodes whose distance later
// improves — wasted work in exchange for parallelism. Unreachable nodes
// stay Unvisited, as in the reference.
func (b *SSSP) ParallelApp() ParallelApp {
	var gc graph.GuestCSR
	return ParallelApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64), threads uint64) guest.ThreadFn {
			gc = graph.Pack(b.g, alloc, store)
			src := uint64(b.src)
			// Worklists can exceed n (duplicates): size generously.
			wl := swrt.NewWorklist(alloc, store, 4*uint64(b.g.N)+64, []uint64{src})
			bar := swrt.NewBarrier(alloc, threads)
			store(gc.DistAddr(src), 0)
			return func(e guest.ThreadEnv) {
				var sense uint64
				for {
					r, ok := wl.Round(e)
					if !ok {
						return
					}
					wl.Drain(e, r, 16, func(u uint64) {
						du := e.Load(gc.DistAddr(u))
						lo := e.Load(gc.OffAddr(u))
						hi := e.Load(gc.OffAddr(u + 1))
						e.Work(2)
						for i := lo; i < hi; i++ {
							v := e.Load(gc.DstAddr(i))
							w := e.Load(gc.WAddr(i))
							nd := du + w
							// Atomic relax; re-append on improvement
							// (source of Bellman-Ford's wasted work).
							for {
								cur := e.Load(gc.DistAddr(v))
								e.Work(1)
								if nd >= cur {
									break
								}
								if e.CAS(gc.DistAddr(v), cur, nd) {
									wl.Push(e, r, v)
									break
								}
							}
						}
					})
					bar.Wait(e, &sense)
					if e.ID() == 0 {
						wl.Swap(e, r)
					}
					bar.Wait(e, &sense)
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return verifyDist("sssp", load, gc, b.ref) },
	}
}
