package swrt

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
)

func serialEnv() *smp.SerialMachine { return smp.NewSerialMachine(1) }

// Property: the guest heap behaves exactly like container/heap.
func TestHeapMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := serialEnv()
		h := NewHeap(m.SetupAlloc, 512)
		var ref intHeap
		ok := true
		m.Run(func(e guest.Env) {
			for step := 0; step < 1500; step++ {
				if ref.Len() < 500 && (rng.Intn(2) == 0 || ref.Len() == 0) {
					k := uint64(rng.Intn(1000))
					h.Push(e, k, k*2)
					heap.Push(&ref, int(k))
				} else {
					k, v, got := h.PopMin(e)
					want := heap.Pop(&ref).(int)
					if !got || k != uint64(want) || v != 2*k {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

func TestHeapSortsDuplicates(t *testing.T) {
	m := serialEnv()
	h := NewHeap(m.SetupAlloc, 64)
	in := []uint64{5, 3, 5, 1, 3, 3, 9, 0, 5}
	var out []uint64
	m.Run(func(e guest.Env) {
		for _, k := range in {
			h.Push(e, k, 0)
		}
		for {
			k, _, ok := h.PopMin(e)
			if !ok {
				break
			}
			out = append(out, k)
		}
	})
	sorted := append([]uint64(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(out) != len(sorted) {
		t.Fatalf("popped %d of %d", len(out), len(sorted))
	}
	for i := range out {
		if out[i] != sorted[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], sorted[i])
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	m := serialEnv()
	q := NewFIFO(m.SetupAlloc, 8)
	m.Run(func(e guest.Env) {
		if !q.Empty(e) {
			t.Error("new queue not empty")
		}
		// Push/pop more than capacity to exercise wraparound.
		next := uint64(0)
		for round := 0; round < 5; round++ {
			for i := 0; i < 6; i++ {
				q.Push(e, uint64(round*6+i))
			}
			for i := 0; i < 6; i++ {
				v, ok := q.Pop(e)
				if !ok || v != next {
					t.Fatalf("pop = %d,%v want %d", v, ok, next)
				}
				next++
			}
		}
		if _, ok := q.Pop(e); ok {
			t.Error("pop from empty succeeded")
		}
	})
}

func TestUnionFind(t *testing.T) {
	m := serialEnv()
	const n = 100
	uf := NewUnionFind(m.SetupAlloc, n)
	uf.InitDirect(m.Mem().Store)
	m.Run(func(e guest.Env) {
		if !uf.Union(e, 1, 2) || !uf.Union(e, 3, 4) {
			t.Error("fresh unions failed")
		}
		if uf.Union(e, 2, 1) {
			t.Error("re-union succeeded")
		}
		if !uf.Union(e, 2, 3) {
			t.Error("bridge union failed")
		}
		if uf.Find(e, 1) != uf.Find(e, 4) {
			t.Error("1 and 4 should share a root")
		}
		if uf.Find(e, 1) == uf.Find(e, 50) {
			t.Error("disjoint sets share a root")
		}
	})
}

// Property: union-find connectivity matches a reference adjacency closure.
func TestUnionFindMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 60
		m := serialEnv()
		uf := NewUnionFind(m.SetupAlloc, n)
		uf.InitDirect(m.Mem().Store)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for ref[x] != x {
				x = ref[x]
			}
			return x
		}
		ok := true
		m.Run(func(e guest.Env) {
			for i := 0; i < 150; i++ {
				a, b := uint64(rng.Intn(n)), uint64(rng.Intn(n))
				got := uf.Union(e, a, b)
				ra, rb := find(int(a)), find(int(b))
				want := ra != rb
				if ra != rb {
					ref[ra] = rb
				}
				if got != want {
					ok = false
					return
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					same := uf.Find(e, uint64(i)) == uf.Find(e, uint64(j))
					if same != (find(i) == find(j)) {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	m := smp.NewMachine(8)
	lock := SpinLock{Addr: m.SetupAlloc(64)}
	shared := m.SetupAlloc(8)
	_, err := m.Run(func(e guest.ThreadEnv) {
		for i := 0; i < 20; i++ {
			lock.Acquire(e)
			v := e.Load(shared)
			e.Work(5) // widen the race window
			e.Store(shared, v+1)
			lock.Release(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem().Load(shared); got != 8*20 {
		t.Fatalf("shared = %d, want %d: lock is broken", got, 8*20)
	}
}

func TestBarrierPhases(t *testing.T) {
	const threads = 8
	m := smp.NewMachine(threads)
	bar := NewBarrier(m.SetupAlloc, threads)
	phase := NewArray(m.SetupAlloc, threads)
	ok := true
	_, err := m.Run(func(e guest.ThreadEnv) {
		var sense uint64
		for p := uint64(1); p <= 5; p++ {
			// Stagger arrival.
			e.Work(uint64(e.ID()) * 50)
			phase.Set(e, uint64(e.ID()), p)
			bar.Wait(e, &sense)
			// After the barrier everyone must be in phase p.
			for i := uint64(0); i < threads; i++ {
				if phase.Get(e, i) != p {
					ok = false
				}
			}
			bar.Wait(e, &sense)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("barrier let a thread run ahead")
	}
}

// TestClaimCoversRangeOnce: across 8 threads, Claim hands out every index
// of [0, n) exactly once, with a chunk that does not divide n.
func TestClaimCoversRangeOnce(t *testing.T) {
	const threads, n, chunk = 8, 1000, 7
	m := smp.NewMachine(threads)
	cursor := m.SetupAlloc(64)
	hits := NewArray(m.SetupAlloc, n)
	claimers := make(map[int]bool)
	_, err := m.Run(func(e guest.ThreadEnv) {
		Claim(e, cursor, n, chunk, func(i uint64) {
			e.FetchAdd(hits.Addr(i), 1)
			claimers[e.ID()] = true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got := m.Mem().Load(hits.Addr(i)); got != 1 {
			t.Fatalf("index %d claimed %d times, want once", i, got)
		}
	}
	if len(claimers) < 2 {
		t.Errorf("only %d of %d threads claimed work", len(claimers), threads)
	}
}

// TestWorklistLevels drains a complete binary tree level by level: item
// v pushes 2v and 2v+1, so round L must visit exactly [2^L, 2^(L+1)),
// each item once. The round counter rides on the control line's spare
// words, as bfs keeps its level there.
func TestWorklistLevels(t *testing.T) {
	const threads, levels = 4, 6
	const n = 1 << levels // the tree's items are 1..n-1
	m := smp.NewMachine(threads)
	wl := NewWorklist(m.SetupAlloc, m.Mem().Store, n/2, []uint64{1})
	levelAddr := wl.Ctl + 40
	seen := NewArray(m.SetupAlloc, n) // sum of (level+1) over v's visits
	bar := NewBarrier(m.SetupAlloc, threads)
	_, err := m.Run(func(e guest.ThreadEnv) {
		var sense uint64
		for {
			r, ok := wl.Round(e)
			level := e.Load(levelAddr)
			if !ok {
				return
			}
			wl.Drain(e, r, 3, func(v uint64) {
				e.FetchAdd(seen.Addr(v), level+1)
				if 2*v < n {
					wl.Push(e, r, 2*v)
					wl.Push(e, r, 2*v+1)
				}
			})
			bar.Wait(e, &sense)
			if e.ID() == 0 {
				wl.Swap(e, r)
				e.Store(levelAddr, level+1)
			}
			bar.Wait(e, &sense)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v < n; v++ {
		if got, want := m.Mem().Load(seen.Addr(v)), uint64(bits.Len64(v)); got != want {
			t.Fatalf("item %d: visit record %d, want one visit in round %d", v, got, want-1)
		}
	}
	if got := m.Mem().Load(levelAddr); got != levels {
		t.Errorf("ran %d non-empty rounds, want %d", got, levels)
	}
}

// TestWorklistPushPastCapacityPanics: a push past a list's capacity must
// panic rather than write past the list.
func TestWorklistPushPastCapacityPanics(t *testing.T) {
	m := smp.NewMachine(1)
	wl := NewWorklist(m.SetupAlloc, m.Mem().Store, 2, []uint64{7})
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(func(e guest.ThreadEnv) {
			r, _ := wl.Round(e)
			for v := uint64(0); v < 3; v++ {
				wl.Push(e, r, v)
			}
		})
	}()
	if !strings.Contains(fmt.Sprint(got), "worklist overflow") {
		t.Fatalf("third push into a 2-item list: recovered %v, want a worklist overflow panic", got)
	}
}
