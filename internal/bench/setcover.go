package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// SetCover is greedy dominating-set — the set-cover instance where vertex
// v's set is {v} ∪ N(v) — on a Kronecker graph. The classic greedy
// algorithm repeatedly picks the set covering the most still-uncovered
// elements; every pick changes the residual coverage of overlapping sets,
// so the choice order is inherently sequential, yet picks with disjoint
// neighborhoods are independent — ordered parallelism again. On the
// frontier the priority is (maxCov - residual) * n + v: residuals only
// shrink, so priorities only grow, and a handler that finds its priority
// stale simply re-pushes itself at the true one — the textbook lazy-greedy
// evaluation, with Swarm's timestamp order standing in for the lazy
// priority queue. Unique priorities (the + v term) make the greedy order,
// and therefore the committed memory, fully deterministic.
type SetCover struct {
	runner
	g      *graph.Graph
	ref    []bool // reference chosen flags, host lazy-greedy
	maxCov uint64 // largest possible residual coverage: maxDeg + 1
}

func init() {
	Register(AppMeta{
		Name:    "setcover",
		Order:   11,
		Summary: "greedy dominating set (lazy set cover) on a Kronecker graph",
	}, func(s Scale) *SetCover {
		switch s {
		case ScaleTiny:
			return NewSetCover(7, 8, 13)
		case ScaleSmall:
			return NewSetCover(9, 12, 13)
		case ScaleLarge:
			return NewSetCoverGraph(graph.MustLoad("kron-14-16-s13", func() *graph.Graph {
				n, edges := graph.Kronecker(14, 16, 13)
				return graph.FromEdgesUnweighted(n, edges, true)
			}))
		default:
			return NewSetCover(11, 16, 13)
		}
	})
}

// NewSetCover builds the benchmark on a Kronecker graph with 2^logN nodes.
// Edge weights are irrelevant to domination, so the graph is unweighted
// (exercising the W-nil CSR contract end to end).
func NewSetCover(logN, avgDeg int, seed int64) *SetCover {
	n, edges := graph.Kronecker(logN, avgDeg, seed)
	return NewSetCoverGraph(graph.FromEdgesUnweighted(n, edges, true))
}

// NewSetCoverGraph builds the benchmark on an arbitrary graph.
func NewSetCoverGraph(g *graph.Graph) *SetCover {
	b := &SetCover{g: g, maxCov: uint64(g.MaxDegree() + 1)}
	b.runner = runner{b}
	b.ref = b.hostGreedy()
	return b
}

// Name implements Benchmark.
func (b *SetCover) Name() string { return "setcover" }

// cover returns v's set: itself plus its out-neighbors.
func (b *SetCover) cover(v int, visit func(int)) {
	visit(v)
	lo, hi := b.g.Offsets[v], b.g.Offsets[v+1]
	for i := lo; i < hi; i++ {
		visit(int(b.g.Dst[i]))
	}
}

// hostGreedy is the host-side reference: exact greedy with the same
// tie-break the guest priorities encode (max residual coverage, then
// smallest vertex id), via a lazy priority queue.
func (b *SetCover) hostGreedy() []bool {
	n := b.g.N
	covered := make([]bool, n)
	chosen := make([]bool, n)
	type item struct{ prio, v uint64 }
	h := make([]item, 0, n)
	push := func(it item) {
		h = append(h, it)
		for i := len(h) - 1; i > 0 && h[(i-1)/2].prio > h[i].prio; i = (i - 1) / 2 {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
		}
	}
	pop := func() item {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && h[l].prio < h[m].prio {
				m = l
			}
			if r < len(h) && h[r].prio < h[m].prio {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	residual := func(v int) uint64 {
		cov := uint64(0)
		b.cover(v, func(u int) {
			if !covered[u] {
				cov++
			}
		})
		return cov
	}
	for v := 0; v < n; v++ {
		cov := uint64(b.g.Degree(v) + 1)
		push(item{(b.maxCov-cov)*uint64(n) + uint64(v), uint64(v)})
	}
	for len(h) > 0 {
		it := pop()
		v := int(it.v)
		cov := residual(v)
		if prio := (b.maxCov-cov)*uint64(n) + it.v; prio > it.prio {
			push(item{prio, it.v}) // stale: reinsert at the true priority
			continue
		}
		if cov != 0 {
			chosen[v] = true
			b.cover(v, func(u int) { covered[u] = true })
		}
	}
	return chosen
}

// SwarmApp implements Benchmark: task = decide(v), timestamp = v's last
// known priority. The handler recounts v's residual coverage; if the
// priority went stale it re-pushes at the true one, otherwise v is the
// global greedy minimum right now — commit the decision (choose when the
// residual is nonzero, skip when the set is exhausted) and mark the newly
// covered elements. The frontier line holds the decision timestamp
// (value), the chosen flag (aux) and the pending entry (best); covered
// flags live in a dense array, one word per element so two picks conflict
// only when their sets truly overlap.
func (b *SetCover) SwarmApp() SwarmApp {
	var fr *frontier.Frontier // set by Build; read by Verify
	var covered swrt.Array
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		gc := graph.Pack(b.g, ab.Alloc, ab.Store)
		n := uint64(b.g.N)
		fr = frontier.New(ab.Alloc, n, 1)
		covered = swrt.NewArray(ab.Alloc, n)
		for v := uint64(0); v < n; v++ {
			cov := uint64(b.g.Degree(int(v)) + 1)
			// best = the initial priority the spawner seeds.
			fr.Init(ab.Store, v, frontier.Unsettled, 0, (b.maxCov-cov)*n+v)
			ab.Store(covered.Addr(v), 0)
		}
		var spawn, decide guest.FnID
		spawn = ab.Fn("spawn", func(e guest.TaskEnv) {
			frontier.SpawnRange(e, spawn, func(e guest.TaskEnv, v uint64) {
				deg := e.Load(gc.OffAddr(v+1)) - e.Load(gc.OffAddr(v))
				e.Work(2)
				fr.Seed(e, v, (b.maxCov-(deg+1))*n+v)
			})
		})
		decide = ab.Fn("decide", func(e guest.TaskEnv) {
			v := e.Arg(0)
			e.Work(2)
			if fr.Value(e, v) != frontier.Unsettled {
				return // decided already
			}
			fr.ClearPending(e, v)
			lo := e.Load(gc.OffAddr(v))
			hi := e.Load(gc.OffAddr(v + 1))
			e.Work(4)
			// Recount the residual coverage of {v} ∪ N(v).
			cov := uint64(0)
			selfUncovered := e.Load(covered.Addr(v)) == 0
			if selfUncovered {
				cov++
			}
			e.Work(1)
			for i := lo; i < hi; i++ {
				w := e.Load(gc.DstAddr(i))
				e.Work(2)
				if e.Load(covered.Addr(w)) == 0 {
					cov++
				}
			}
			if prio := (b.maxCov-cov)*n + v; prio > e.Timestamp() {
				fr.Push(e, v, prio) // stale: re-push at the true priority
				return
			}
			// Priority is current: v is the greedy choice right now.
			e.Store(fr.ValueAddr(v), e.Timestamp())
			if cov == 0 {
				return // set exhausted: decided, not chosen
			}
			fr.SetAux(e, v, 1)
			if selfUncovered {
				e.Store(covered.Addr(v), 1)
			}
			for i := lo; i < hi; i++ {
				w := e.Load(gc.DstAddr(i))
				e.Work(1)
				if e.Load(covered.Addr(w)) == 0 {
					e.Store(covered.Addr(w), 1)
				}
			}
		})
		fr.Fn = decide
		return []guest.TaskDesc{{Fn: spawn, TS: 0, Args: [3]uint64{0, n}}}
	}
	app.Verify = func(load func(uint64) uint64) error {
		return b.verify(load, func(v uint64) (decided, chosen, covered2 uint64) {
			return load(fr.ValueAddr(v)), load(fr.AuxAddr(v)), load(covered.Addr(v))
		})
	}
	return app
}

// verify checks chosen flags against the host reference and that every
// element ended covered and every set decided.
func (b *SetCover) verify(load func(uint64) uint64, state func(v uint64) (decided, chosen, covered uint64)) error {
	for v := 0; v < b.g.N; v++ {
		decided, chosen, covered := state(uint64(v))
		if decided == frontier.Unsettled {
			return fmt.Errorf("setcover: set %d never decided", v)
		}
		want := uint64(0)
		if b.ref[v] {
			want = 1
		}
		if chosen != want {
			return fmt.Errorf("setcover: chosen[%d] = %d, want %d", v, chosen, want)
		}
		if covered != 1 {
			return fmt.Errorf("setcover: element %d not covered", v)
		}
	}
	return nil
}

// serialState is the serial flavor's guest layout.
type serialState struct {
	gc      graph.GuestCSR
	decided swrt.Array // Unvisited until decided; then 1 chosen / 0 skipped
	covered swrt.Array
	pq      swrt.Heap
}

// buildSerial lays out the serial flavor's guest state.
func (b *SetCover) buildSerial(alloc func(uint64) uint64, store func(addr, val uint64)) serialState {
	n := uint64(b.g.N)
	st := serialState{
		gc:      graph.Pack(b.g, alloc, store),
		decided: swrt.NewArray(alloc, n),
		covered: swrt.NewArray(alloc, n),
		// One live entry per undecided set, plus one reinsertion per
		// residual decrement: n + Σ(deg+1) bounds the heap.
		pq: swrt.NewHeap(alloc, 2*n+uint64(b.g.M())+2),
	}
	for v := uint64(0); v < n; v++ {
		store(st.decided.Addr(v), graph.Unvisited)
		store(st.covered.Addr(v), 0)
	}
	return st
}

// SerialApp implements Benchmark: the lazy-greedy loop over a guest
// binary heap — pop the minimum priority, recount, reinsert if stale,
// else decide.
func (b *SetCover) SerialApp() SerialApp {
	var st serialState
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			st = b.buildSerial(alloc, store)
			return func(e guest.Env, mark func()) { b.serialBody(e, st, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.serialVerify(load, st) },
	}
}

func (b *SetCover) serialBody(e guest.Env, st serialState, iterMark func()) {
	n := uint64(b.g.N)
	for v := uint64(0); v < n; v++ {
		deg := e.Load(st.gc.OffAddr(v+1)) - e.Load(st.gc.OffAddr(v))
		e.Work(1)
		st.pq.Push(e, (b.maxCov-(deg+1))*n+v, v)
	}
	for {
		iterMark()
		prio, v, ok := st.pq.PopMin(e)
		if !ok {
			return
		}
		lo := e.Load(st.gc.OffAddr(v))
		hi := e.Load(st.gc.OffAddr(v + 1))
		e.Work(2)
		cov := uint64(0)
		selfUncovered := e.Load(st.covered.Addr(v)) == 0
		if selfUncovered {
			cov++
		}
		for i := lo; i < hi; i++ {
			w := e.Load(st.gc.DstAddr(i))
			e.Work(2)
			if e.Load(st.covered.Addr(w)) == 0 {
				cov++
			}
		}
		if p := (b.maxCov-cov)*n + v; p > prio {
			st.pq.Push(e, p, v) // stale: reinsert at the true priority
			continue
		}
		if cov == 0 {
			e.Store(st.decided.Addr(v), 0)
			continue
		}
		e.Store(st.decided.Addr(v), 1)
		if selfUncovered {
			e.Store(st.covered.Addr(v), 1)
		}
		for i := lo; i < hi; i++ {
			w := e.Load(st.gc.DstAddr(i))
			e.Work(1)
			if e.Load(st.covered.Addr(w)) == 0 {
				e.Store(st.covered.Addr(w), 1)
			}
		}
	}
}

// serialVerify checks the serial flavor's decided/covered arrays.
func (b *SetCover) serialVerify(load func(uint64) uint64, st serialState) error {
	return b.verify(load, func(v uint64) (decided, chosen, covered uint64) {
		d := load(st.decided.Addr(v))
		if d == graph.Unvisited {
			return frontier.Unsettled, 0, load(st.covered.Addr(v))
		}
		return 0, d, load(st.covered.Addr(v))
	})
}
