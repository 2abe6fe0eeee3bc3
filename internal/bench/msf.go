package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// MSF is Kruskal's minimum spanning forest on a Kronecker graph. The
// serial and software-parallel versions sort edges by weight and process
// them in order; the Swarm version instead sorts implicitly through the
// task queues — one task per edge, timestamped by weight — overlapping the
// sort and edge-processing phases (§6.2). The software-parallel version
// uses PBBS-style deterministic reservations.
type MSF struct {
	runner
	n     int
	edges []graph.Edge
	ref   uint64 // reference forest weight
}

func init() {
	Register(AppMeta{
		Name:    "msf",
		Order:   3,
		Summary: "Kruskal minimum spanning forest on a Kronecker graph",
	}, func(s Scale) *MSF {
		switch s {
		case ScaleTiny:
			return NewMSF(7, 16, 5)
		case ScaleSmall:
			return NewMSF(9, 16, 5)
		default:
			return NewMSF(10, 24, 5)
		}
	})
}

// NewMSF builds the benchmark on a Kronecker graph with 2^logN nodes.
func NewMSF(logN, avgDeg int, seed int64) *MSF {
	n, edges := graph.Kronecker(logN, avgDeg, seed)
	b := &MSF{n: n, edges: edges, ref: graph.MSFWeight(n, edges)}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *MSF) Name() string { return "msf" }

// guestMSF is the edge-list layout shared by all flavors.
type guestMSF struct {
	m      uint64
	eu, ev swrt.Array
	ew     swrt.Array
	inMSF  swrt.Array
	uf     swrt.UnionFind
}

func (b *MSF) pack(alloc func(uint64) uint64, store func(addr, val uint64)) guestMSF {
	m := uint64(len(b.edges))
	g := guestMSF{
		m:     m,
		eu:    swrt.NewArray(alloc, m),
		ev:    swrt.NewArray(alloc, m),
		ew:    swrt.NewArray(alloc, m),
		inMSF: swrt.NewArray(alloc, m),
		uf:    swrt.NewUnionFind(alloc, uint64(b.n)),
	}
	for i, e := range b.edges {
		store(g.eu.Addr(uint64(i)), uint64(e.U))
		store(g.ev.Addr(uint64(i)), uint64(e.V))
		store(g.ew.Addr(uint64(i)), uint64(e.W))
	}
	g.uf.InitDirect(store)
	return g
}

// verify sums the weights of the selected edges: the total weight of a
// minimum spanning forest is unique even with duplicate edge weights, so
// this is robust to tie-breaking differences between flavors.
func (b *MSF) verify(load func(uint64) uint64, g guestMSF) error {
	var total uint64
	count := 0
	for i := uint64(0); i < g.m; i++ {
		if load(g.inMSF.Addr(i)) != 0 {
			total += load(g.ew.Addr(i))
			count++
		}
	}
	if total != b.ref {
		return fmt.Errorf("msf: forest weight %d (%d edges), want %d", total, count, b.ref)
	}
	return nil
}

// SwarmApp implements Benchmark: a tree of spawner tasks (timestamp 0)
// fans out one task per edge with timestamp = weight; edge tasks run
// Kruskal's union-find test in weight order. Matches Table 1's profile:
// ~40 instructions, ~7 words read, writes only on tree edges.
func (b *MSF) SwarmApp() SwarmApp {
	var g guestMSF
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		g = b.pack(ab.Alloc, ab.Store)
		var spawn, edge guest.FnID
		spawn = ab.Fn("spawn", func(e guest.TaskEnv) {
			frontier.SpawnRange(e, spawn, func(e guest.TaskEnv, i uint64) {
				w := e.Load(g.ew.Addr(i))
				// Spatial hint: the edge-array block — eight consecutive
				// edge tasks share the eu/ev/ew/inMSF cache lines, so
				// hint-based mappers keep each block's lines tile-local.
				e.EnqueueHinted(edge, w, i/8, [3]uint64{i})
			})
		})
		edge = ab.Fn("edge", func(e guest.TaskEnv) {
			i := e.Arg(0)
			u := e.Load(g.eu.Addr(i))
			v := e.Load(g.ev.Addr(i))
			e.Work(22) // Kruskal iteration bookkeeping (Table 1: ~40 instrs)
			if g.uf.Union(e, u, v) {
				e.Store(g.inMSF.Addr(i), 1)
			}
		})
		return []guest.TaskDesc{{Fn: spawn, TS: 0, Args: [3]uint64{0, g.m}}}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, g) }
	return app
}

// serialBody sorts then scans; iterMark brackets the Kruskal loop
// iterations (the sort is prologue — the paper analyzes the edge loop,
// whose iteration order matches task order, §3).
func (b *MSF) serialBody(e guest.Env, g guestMSF, hist, sorted swrt.Array, iterMark func()) {
	b.serialSort(e, g, hist, sorted)
	for s := uint64(0); s < g.m; s++ {
		iterMark()
		i := e.Load(sorted.Addr(s))
		u := e.Load(g.eu.Addr(i))
		v := e.Load(g.ev.Addr(i))
		e.Work(2)
		if g.uf.Union(e, u, v) {
			e.Store(g.inMSF.Addr(i), 1)
		}
	}
}

// SerialApp implements Benchmark: tuned serial Kruskal — counting sort by
// weight (weights are bytes), then an in-order union-find scan.
func (b *MSF) SerialApp() SerialApp {
	var g guestMSF
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			g = b.pack(alloc, store)
			hist := swrt.NewArray(alloc, 257)
			sorted := swrt.NewArray(alloc, g.m) // edge indices, weight-sorted
			return func(e guest.Env, mark func()) { b.serialBody(e, g, hist, sorted, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}

// serialSort counting-sorts edge indices by weight into sorted.
func (b *MSF) serialSort(e guest.Env, g guestMSF, hist, sorted swrt.Array) {
	for w := uint64(0); w < 257; w++ {
		e.Store(hist.Addr(w), 0)
	}
	for i := uint64(0); i < g.m; i++ {
		w := e.Load(g.ew.Addr(i))
		e.Store(hist.Addr(w+1), e.Load(hist.Addr(w+1))+1)
	}
	for w := uint64(1); w < 257; w++ {
		e.Store(hist.Addr(w), e.Load(hist.Addr(w))+e.Load(hist.Addr(w-1)))
		e.Work(1)
	}
	for i := uint64(0); i < g.m; i++ {
		w := e.Load(g.ew.Addr(i))
		slot := e.Load(hist.Addr(w))
		e.Store(hist.Addr(w), slot+1)
		e.Store(sorted.Addr(slot), i)
	}
}

// ParallelApp implements Parallel: parallel counting sort by weight,
// then rounds of PBBS-style deterministic reservations — each round,
// active edges reserve both endpoint roots with their (weight-ordered)
// index; winners of both reservations commit their union, losers retry
// next round. Results are deterministic and equal to sequential
// Kruskal's.
func (b *MSF) ParallelApp() ParallelApp {
	var g guestMSF
	return ParallelApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64), p uint64) guest.ThreadFn {
			g = b.pack(alloc, store)
			n := uint64(b.n)
			// Per-thread histograms for the parallel counting sort.
			hists := swrt.NewArray(alloc, p*256)
			cursors := swrt.NewArray(alloc, p*256)
			sorted := swrt.NewArray(alloc, g.m)
			reserve := swrt.NewArray(alloc, n) // root -> min reserving index
			const noRes = ^uint64(0)
			for i := uint64(0); i < n; i++ {
				store(reserve.Addr(i), noRes)
			}
			// Round state: [prefix, activeCount, fetchIdx, pendingCount].
			ctl := alloc(64)
			active := swrt.NewArray(alloc, g.m)  // edge indices this round
			pending := swrt.NewArray(alloc, g.m) // retries for next round
			bar := swrt.NewBarrier(alloc, p)
			round := g.m / 8 // edges examined per round (few barrier phases)
			if round < 64*p {
				round = 64 * p
			}
			if round > g.m {
				round = g.m
			}

			// edge loads the endpoints of the active list's s-th entry.
			edge := func(e guest.ThreadEnv, s uint64) (pos, i, u, v uint64) {
				pos = active.Get(e, s)
				i = sorted.Get(e, pos)
				return pos, i, g.eu.Get(e, i), g.ev.Get(e, i)
			}
			return func(e guest.ThreadEnv) {
				var sense uint64
				id := uint64(e.ID())
				// --- parallel counting sort ---
				chunk := (g.m + p - 1) / p
				lo, hi := id*chunk, (id+1)*chunk
				if hi > g.m {
					hi = g.m
				}
				for w := uint64(0); w < 256; w++ {
					e.Store(hists.Addr(id*256+w), 0)
				}
				for i := lo; i < hi; i++ {
					w := e.Load(g.ew.Addr(i))
					a := hists.Addr(id*256 + w)
					e.Store(a, e.Load(a)+1)
				}
				bar.Wait(e, &sense)
				if id == 0 {
					// Exclusive prefix over (weight, thread).
					run := uint64(0)
					for w := uint64(0); w < 256; w++ {
						for t := uint64(0); t < p; t++ {
							c := e.Load(hists.Addr(t*256 + w))
							e.Store(cursors.Addr(t*256+w), run)
							run += c
							e.Work(1)
						}
					}
				}
				bar.Wait(e, &sense)
				for i := lo; i < hi; i++ {
					w := e.Load(g.ew.Addr(i))
					a := cursors.Addr(id*256 + w)
					slot := e.Load(a)
					e.Store(a, slot+1)
					e.Store(sorted.Addr(slot), i)
				}
				bar.Wait(e, &sense)

				// --- deterministic reservations over the sorted edges ---
				// The active list holds *sorted positions*: priorities
				// follow weight order, so the result equals sequential
				// Kruskal's.
				for {
					if id == 0 {
						// Build the active list: pending retries + next prefix.
						cnt := e.Load(ctl + 8)
						prefix := e.Load(ctl)
						for cnt < round && prefix < g.m {
							e.Store(active.Addr(cnt), prefix)
							cnt++
							prefix++
						}
						e.Store(ctl, prefix)
						e.Store(ctl+8, cnt)
						e.Store(ctl+16, 0) // fetch index
						e.Store(ctl+24, 0) // pending count
					}
					bar.Wait(e, &sense)
					cnt := e.Load(ctl + 8)
					if cnt == 0 {
						return
					}
					// Reserve phase: lower sorted position wins each root.
					swrt.Claim(e, ctl+16, cnt, 4, func(s uint64) {
						pos, _, u, v := edge(e, s)
						ru := g.uf.Find(e, u)
						rv := g.uf.Find(e, v)
						e.Work(2)
						if ru == rv {
							return
						}
						for _, r := range [2]uint64{ru, rv} {
							for {
								cur := e.Load(reserve.Addr(r))
								e.Work(1)
								if pos >= cur {
									break
								}
								if e.CAS(reserve.Addr(r), cur, pos) {
									break
								}
							}
						}
					})
					bar.Wait(e, &sense)
					if id == 0 {
						e.Store(ctl+16, 0)
					}
					bar.Wait(e, &sense)
					// Commit phase: winners of both roots union; losers retry.
					swrt.Claim(e, ctl+16, cnt, 4, func(s uint64) {
						pos, i, u, v := edge(e, s)
						ru := g.uf.Find(e, u)
						rv := g.uf.Find(e, v)
						e.Work(2)
						if ru == rv {
							return // became redundant
						}
						if e.Load(reserve.Addr(ru)) == pos && e.Load(reserve.Addr(rv)) == pos {
							g.uf.Union(e, u, v)
							e.Store(g.inMSF.Addr(i), 1)
						} else {
							slot := e.FetchAdd(ctl+24, 1)
							e.Store(pending.Addr(slot), pos)
						}
					})
					bar.Wait(e, &sense)
					if id == 0 {
						e.Store(ctl+16, 0)
					}
					bar.Wait(e, &sense)
					// Reset the reservations touched this round (parallel).
					swrt.Claim(e, ctl+16, cnt, 8, func(s uint64) {
						_, _, u, v := edge(e, s)
						e.Store(reserve.Addr(g.uf.Find(e, u)), noRes)
						e.Store(reserve.Addr(g.uf.Find(e, v)), noRes)
					})
					bar.Wait(e, &sense)
					// Rebuild the pending retries into the active list.
					if id == 0 {
						pcnt := e.Load(ctl + 24)
						for s := uint64(0); s < pcnt; s++ {
							e.Store(active.Addr(s), e.Load(pending.Addr(s)))
						}
						e.Store(ctl+8, pcnt)
						e.Store(ctl+16, 0)
						e.Store(ctl+24, 0)
					}
					bar.Wait(e, &sense)
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}
