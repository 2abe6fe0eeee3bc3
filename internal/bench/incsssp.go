package bench

import (
	"fmt"
	"math/rand"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// IncSSSP is incremental single-source shortest paths over a dynamic road
// network: the session-API workload. Phase 1 computes SSSP from scratch;
// each later phase applies a batch of arc-weight decreases (roads getting
// faster) at setup cost and re-runs to quiescence, so only the affected
// region of the graph recomputes. This is the "run to quiescence, inject
// more work, run again" pattern of incremental ordered stream processing
// (arXiv:1803.11328) that the one-shot API could not express — §4.1's
// termination condition is a resumable point, not the end of the program.
//
// The Swarm task is relax(v) at timestamp = tentative distance: unlike
// sssp's settle-once visit, relax re-opens a vertex whenever a strictly
// smaller distance reaches it, which is exactly what incremental updates
// need (and in phase 1 it degenerates to Dijkstra: the first arrival is
// minimal). Each phase's final distances are verified against a host-side
// Dijkstra on the current weights. Like astar and stream, it has no
// software-parallel version: there is no state-of-the-art
// software-parallel incremental SSSP baseline to compare against.
type IncSSSP struct {
	g       *graph.Graph
	src     int
	batches [][]incUpdate
	refs    [][]uint64 // refs[k] = distances after batch k (refs[0] = initial)
}

// incUpdate is one directed arc-weight decrease.
type incUpdate struct {
	arc  uint64 // index into the CSR arc arrays
	src  uint64 // arc tail (precomputed; CSR stores only heads)
	dst  uint64 // arc head
	newW uint64
}

func init() {
	Register(AppMeta{
		Name:    "incsssp",
		Order:   9,
		Summary: "incremental SSSP over a dynamic road network (multi-phase session)",
	}, func(s Scale) *IncSSSP {
		switch s {
		case ScaleTiny:
			return NewIncSSSP(12, 12, 2, 6, 5)
		case ScaleSmall:
			return NewIncSSSP(36, 36, 3, 24, 5)
		default:
			return NewIncSSSP(72, 72, 4, 60, 5)
		}
	})
}

// NewIncSSSP builds the benchmark on a rows x cols road network with
// nBatches update batches of batchSize arc-weight decreases each,
// precomputing the per-phase reference distances.
func NewIncSSSP(rows, cols, nBatches, batchSize int, seed int64) *IncSSSP {
	g := graph.RoadNet(rows, cols, seed)
	b := &IncSSSP{g: g, src: 0}

	// Generate the update schedule against a running copy of the weights,
	// so every update is a strict decrease at its application time.
	w := append([]uint32(nil), g.W...)
	rng := rand.New(rand.NewSource(seed * 77))
	arcSrc := arcSources(g)
	for k := 0; k < nBatches; k++ {
		var batch []incUpdate
		for len(batch) < batchSize {
			arc := uint64(rng.Intn(g.M()))
			if w[arc] <= 1 {
				continue
			}
			nw := uint64(w[arc])/2 + 1
			if nw >= uint64(w[arc]) {
				nw = uint64(w[arc]) - 1
			}
			w[arc] = uint32(nw)
			batch = append(batch, incUpdate{
				arc:  arc,
				src:  uint64(arcSrc[arc]),
				dst:  uint64(g.Dst[arc]),
				newW: nw,
			})
		}
		b.batches = append(b.batches, batch)
	}

	// Per-phase references: Dijkstra on the weights as of each batch.
	clone := *g
	clone.W = append([]uint32(nil), g.W...)
	b.refs = append(b.refs, graph.Dijkstra(&clone, b.src))
	for _, batch := range b.batches {
		for _, u := range batch {
			clone.W[u.arc] = uint32(u.newW)
		}
		b.refs = append(b.refs, graph.Dijkstra(&clone, b.src))
	}
	return b
}

// arcSources inverts the CSR offsets: the tail vertex of every arc.
func arcSources(g *graph.Graph) []uint32 {
	src := make([]uint32, g.M())
	for u := 0; u < g.N; u++ {
		lo, hi := g.Neighbors(u)
		for i := lo; i < hi; i++ {
			src[i] = uint32(u)
		}
	}
	return src
}

// Name implements Benchmark.
func (b *IncSSSP) Name() string { return "incsssp" }

// PhaseCount returns the number of quiescent phases a run executes: the
// initial solve plus one phase per update batch.
func (b *IncSSSP) PhaseCount() int { return len(b.batches) + 1 }

// verifyPhase checks the distances after 0-based phase against that
// phase's Dijkstra reference.
func (b *IncSSSP) verifyPhase(load func(uint64) uint64, gc graph.GuestCSR, phase int) error {
	return verifyDist(fmt.Sprintf("incsssp phase %d", phase+1), load, gc, b.refs[phase])
}

// SwarmApp implements Benchmark. The decomposition covers phase 1 (the
// from-scratch solve): machine-independent consumers — the oracle
// profiler, Table 1 — analyze the initial solve, while the phased session
// (OpenSession) drives the same relax function through every update
// batch.
func (b *IncSSSP) SwarmApp() SwarmApp {
	app, _, _ := b.swarmApp()
	return app
}

// swarmApp builds the app and exposes the guest CSR and relax handle the
// phased runner needs for between-phase injection. The pointees are
// assigned when Build runs (machine setup time).
func (b *IncSSSP) swarmApp() (SwarmApp, *graph.GuestCSR, *guest.FnID) {
	gc := &graph.GuestCSR{}
	relaxID := new(guest.FnID)
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		*gc = graph.Pack(b.g, ab.Alloc, ab.Store)
		var relax guest.FnID
		relax = ab.Fn("relax", func(e guest.TaskEnv) {
			node := e.Arg(0)
			e.Work(2)
			if e.Load(gc.DistAddr(node)) <= e.Timestamp() {
				return // no improvement: the vertex is at least this close
			}
			e.Store(gc.DistAddr(node), e.Timestamp())
			lo := e.Load(gc.OffAddr(node))
			hi := e.Load(gc.OffAddr(node + 1))
			e.Work(14) // relaxation bookkeeping (as sssp, Table 1)
			for i := lo; i < hi; i++ {
				child := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				e.Work(2)
				// Spatial hint: the destination vertex (see sssp).
				e.EnqueueHinted(relax, e.Timestamp()+w, child, [3]uint64{child})
			}
		})
		*relaxID = relax
		return []guest.TaskDesc{guest.TaskDesc{Fn: relax, TS: 0, Args: [3]uint64{uint64(b.src)}}.WithHint(uint64(b.src))}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verifyPhase(load, *gc, 0) }
	return app, gc, relaxID
}

// OpenSession implements Sessioned: it builds the machine and parks it
// before the initial solve. Each Step then runs one phase — phase 1 is
// the from-scratch solve; phase k+1 applies update batch k to guest
// memory at setup cost, injecting one relax root per updated arc whose
// tail is reachable — and verifies the distances against that phase's
// Dijkstra reference. The machine stays warm between steps, which is what
// lets a daemon serve incremental resubmission against live state.
func (b *IncSSSP) OpenSession(cfg core.Config) (*Session, error) {
	app, gc, relaxID := b.swarmApp()
	bk, err := app.Backend(cfg)
	if err != nil {
		return nil, err
	}
	step := func(phase int) (core.PhaseStats, error) {
		if phase > 0 {
			for _, u := range b.batches[phase-1] {
				bk.Mem().Store(gc.WAddr(u.arc), u.newW)
				du := bk.Mem().Load(gc.DistAddr(u.src))
				if du == graph.Unvisited {
					continue // tail unreachable: the decrease changes nothing yet
				}
				d := guest.TaskDesc{Fn: *relaxID, TS: du + u.newW, Args: [3]uint64{u.dst}}
				bk.EnqueueRootDesc(d.WithHint(u.dst))
			}
		}
		ph, err := bk.RunPhase()
		if err != nil {
			return core.PhaseStats{}, fmt.Errorf("incsssp phase %d: %w", phase+1, err)
		}
		if err := b.verifyPhase(bk.Mem().Load, *gc, phase); err != nil {
			return core.PhaseStats{}, err
		}
		return ph, nil
	}
	return NewSession(b.Name(), b.PhaseCount(), step, bk.Snapshot), nil
}

// RunSwarm implements Benchmark: the whole session's cumulative
// statistics (the final phase's Cumulative).
func (b *IncSSSP) RunSwarm(cfg core.Config) (core.Stats, error) {
	phases, err := RunPhases(b, cfg)
	if err != nil {
		return core.Stats{}, err
	}
	return phases[len(phases)-1].Cumulative, nil
}

// RunSerial implements Benchmark: the tuned serial incremental SSSP — an
// initial lazy-deletion Dijkstra, then per batch a seeded re-relaxation
// from the updated arcs' heads, all on one machine so later phases run
// against warm caches, mirroring the session. The serial version pays for
// applying the updates in guest stores (a few cycles against thousands of
// relaxations).
func (b *IncSSSP) RunSerial(nCores int) (uint64, error) {
	m := smp.NewSerialMachine(smp.DefaultConfig(nCores))
	gc := graph.Pack(b.g, m.SetupAlloc, m.Mem().Store)
	capacity := uint64(b.g.M())*uint64(b.PhaseCount()) + 64
	pq := swrt.NewHeap(m.SetupAlloc, capacity)
	cycles := m.Run(func(e guest.Env) {
		b.serialBody(e, gc, pq, func() {}, true)
	})
	return cycles, b.verifyPhase(m.Mem().Load, gc, len(b.refs)-1)
}

// serialBody runs the full incremental computation. When phased is false
// it runs only the initial solve (the oracle's TLS analysis profiles the
// from-scratch algorithm, matching SwarmApp).
func (b *IncSSSP) serialBody(e guest.Env, gc graph.GuestCSR, pq swrt.Heap, iterMark func(), phased bool) {
	// relaxLoop drains the queue with lazy deletion: pop (d, u); settle
	// only if d still improves dist[u].
	relaxLoop := func() {
		for {
			iterMark()
			d, u, ok := pq.PopMin(e)
			if !ok {
				return
			}
			e.Work(1)
			if e.Load(gc.DistAddr(u)) <= d {
				continue
			}
			e.Store(gc.DistAddr(u), d)
			lo := e.Load(gc.OffAddr(u))
			hi := e.Load(gc.OffAddr(u + 1))
			e.Work(2)
			for i := lo; i < hi; i++ {
				v := e.Load(gc.DstAddr(i))
				w := e.Load(gc.WAddr(i))
				e.Work(1)
				if d+w < e.Load(gc.DistAddr(v)) {
					pq.Push(e, d+w, v)
				}
			}
		}
	}
	pq.Push(e, 0, uint64(b.src))
	relaxLoop()
	if !phased {
		return
	}
	for _, batch := range b.batches {
		for _, u := range batch {
			e.Store(gc.WAddr(u.arc), u.newW)
			du := e.Load(gc.DistAddr(u.src))
			e.Work(2)
			if du == graph.Unvisited {
				continue
			}
			if du+u.newW < e.Load(gc.DistAddr(u.dst)) {
				pq.Push(e, du+u.newW, u.dst)
			}
		}
		relaxLoop()
	}
}

// SerialApp implements Benchmark: the initial solve, sliced at
// relaxation-loop iterations (matching SwarmApp's phase-1 scope).
func (b *IncSSSP) SerialApp() SerialApp {
	var gc graph.GuestCSR
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			gc = graph.Pack(b.g, alloc, store)
			pq := swrt.NewHeap(alloc, uint64(b.g.M())+64)
			return func(e guest.Env, mark func()) { b.serialBody(e, gc, pq, mark, false) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verifyPhase(load, gc, 0) },
	}
}
