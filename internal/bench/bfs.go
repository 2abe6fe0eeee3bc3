package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// BFS finds the breadth-first tree of an unstructured mesh (the paper's
// hugetric input). The mesh is deep (thousands of levels at scale), so the
// level-synchronous software-parallel version starves while Swarm
// speculates across levels (§6.2).
type BFS struct {
	runner
	g   *graph.Graph
	src int
	ref []uint64
}

func init() {
	Register(AppMeta{
		Name:    "bfs",
		Order:   0,
		Summary: "breadth-first search of a deep unstructured mesh",
	}, func(s Scale) *BFS {
		switch s {
		case ScaleTiny:
			return NewBFS(40, 10)
		case ScaleSmall:
			return NewBFS(100, 12)
		case ScaleLarge:
			return NewBFSGraph(graph.MustLoad("trimesh-1600x24", func() *graph.Graph {
				return graph.TriMesh(1600, 24)
			}))
		default:
			return NewBFS(400, 18)
		}
	})
}

// NewBFS builds the benchmark on a rows x cols triangulated mesh.
func NewBFS(rows, cols int) *BFS {
	return NewBFSGraph(graph.TriMesh(rows, cols))
}

// NewBFSGraph builds the benchmark on an arbitrary graph (weights, if
// any, are ignored).
func NewBFSGraph(g *graph.Graph) *BFS {
	b := &BFS{g: g, src: 0, ref: graph.BFSLevels(g, 0)}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *BFS) Name() string { return "bfs" }

// verifyDist checks the distance array a graph app leaves in its packed
// CSR against host reference distances (graph.Inf, unreachable, is
// Unvisited in guest memory). bfs, sssp, dsssp's serial flavor and
// incsssp share it; app names the failing run in the error.
func verifyDist(app string, load func(uint64) uint64, gc graph.GuestCSR, ref []uint64) error {
	for u, want := range ref {
		if want == graph.Inf {
			want = graph.Unvisited
		}
		if got := load(gc.DistAddr(uint64(u))); got != want {
			return fmt.Errorf("%s: dist[%d] = %d, want %d", app, u, got, want)
		}
	}
	return nil
}

// SwarmApp implements Benchmark: task = visit(node), timestamp = level.
// Matches Table 1's profile: ~22 instructions, ~4 words read, <1 written.
func (b *BFS) SwarmApp() SwarmApp {
	var gc graph.GuestCSR
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		var visit guest.FnID
		visit = ab.Fn("visit", func(e guest.TaskEnv) {
			node := e.Arg(0)
			e.Work(2)
			if e.Load(gc.DistAddr(node)) != graph.Unvisited {
				return // visited path: a shorter level got here first
			}
			e.Store(gc.DistAddr(node), e.Timestamp())
			lo := e.Load(gc.OffAddr(node))
			hi := e.Load(gc.OffAddr(node + 1))
			e.Work(10) // visit bookkeeping (calibrated to Table 1: ~22 instrs)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				e.Work(1)
				// Spatial hint: the destination vertex — every visit of one
				// vertex shares a home tile under hint-based mappers.
				e.EnqueueHinted(visit, e.Timestamp()+1, child, [3]uint64{child})
			}
		})
		return []guest.TaskDesc{guest.TaskDesc{Fn: visit, TS: 0, Args: [3]uint64{uint64(b.src)}}.WithHint(uint64(b.src))}
	}
	app.Verify = func(load func(uint64) uint64) error { return verifyDist("bfs", load, gc, b.ref) }
	return app
}

// serialBody is the serial algorithm; iterMark flags iteration boundaries
// for the oracle's TLS analysis.
func (b *BFS) serialBody(e guest.Env, gc graph.GuestCSR, q swrt.FIFO, iterMark func()) {
	e.Store(gc.DistAddr(uint64(b.src)), 0)
	q.Push(e, uint64(b.src))
	for {
		iterMark()
		u, ok := q.Pop(e)
		if !ok {
			return
		}
		du := e.Load(gc.DistAddr(u))
		lo := e.Load(gc.OffAddr(u))
		hi := e.Load(gc.OffAddr(u + 1))
		e.Work(2)
		for i := lo; i < hi; i++ {
			v := e.Load(gc.DstAddr(i))
			e.Work(1)
			if e.Load(gc.DistAddr(v)) == graph.Unvisited {
				e.Store(gc.DistAddr(v), du+1)
				q.Push(e, v)
			}
		}
	}
}

// SerialApp implements Benchmark: the tuned serial bfs needs no priority
// queue — an efficient FIFO holds the frontier (§6.2).
func (b *BFS) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			q := swrt.NewFIFO(alloc, uint64(b.g.N)+1)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, q, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return verifyDist("bfs", load, gc, b.ref) },
	}
}

// RunParallel implements Parallel: a PBFS-style level-synchronous
// parallel BFS — threads share the current frontier, build the next one
// with atomic appends, and barrier between levels. It only exposes
// one level of parallelism at a time (§6.2).
func (b *BFS) RunParallel(nCores int) (uint64, error) {
	m := smp.NewMachine(smp.DefaultConfig(nCores))
	gc := graph.Pack(b.g, m.SetupAlloc, m.Mem().Store)
	n := uint64(b.g.N)
	frontA := swrt.NewArray(m.SetupAlloc, n)
	frontB := swrt.NewArray(m.SetupAlloc, n)
	// Shared control block: [curBase, curCount, nextBase, nextCount,
	// fetchIdx, level].
	ctl := m.SetupAlloc(64)
	bar := swrt.NewBarrier(m.SetupAlloc, uint64(nCores))
	// Seed the first frontier.
	m.Mem().Store(ctl, frontA.Base)
	m.Mem().Store(ctl+8, 1)
	m.Mem().Store(ctl+16, frontB.Base)
	m.Mem().Store(frontA.Base, uint64(b.src))
	m.Mem().Store(gc.DistAddr(uint64(b.src)), 0)

	const chunk = 16
	st, err := m.Run(func(e guest.ThreadEnv) {
		var sense uint64
		for {
			curBase := e.Load(ctl)
			curCount := e.Load(ctl + 8)
			nextBase := e.Load(ctl + 16)
			level := e.Load(ctl + 40)
			if curCount == 0 {
				return
			}
			// Chunked grab over the frontier.
			for {
				start := e.FetchAdd(ctl+32, chunk)
				if start >= curCount {
					break
				}
				end := start + chunk
				if end > curCount {
					end = curCount
				}
				for fi := start; fi < end; fi++ {
					u := e.Load(curBase + fi*8)
					lo := e.Load(gc.OffAddr(u))
					hi := e.Load(gc.OffAddr(u + 1))
					e.Work(2)
					for i := lo; i < hi; i++ {
						v := e.Load(gc.DstAddr(i))
						e.Work(1)
						if e.Load(gc.DistAddr(v)) == graph.Unvisited {
							if e.CAS(gc.DistAddr(v), graph.Unvisited, level+1) {
								slot := e.FetchAdd(ctl+24, 1)
								e.Store(nextBase+slot*8, v)
							}
						}
					}
				}
			}
			bar.Wait(e, &sense)
			if e.ID() == 0 {
				// Swap frontiers for the next level.
				nc := e.Load(ctl + 24)
				e.Store(ctl, nextBase)
				e.Store(ctl+8, nc)
				e.Store(ctl+16, curBase)
				e.Store(ctl+24, 0)
				e.Store(ctl+32, 0)
				e.Store(ctl+40, level+1)
			}
			bar.Wait(e, &sense)
		}
	})
	if err != nil {
		return 0, err
	}
	return st.Cycles, verifyDist("bfs", m.Mem().Load, gc, b.ref)
}
