package bench

import (
	"fmt"
	"sort"

	"github.com/swarm-sim/swarm/internal/guest"
)

// MSort is parallel mergesort, the canonical fork-join divide-and-conquer
// workload: every task runs in ONE timestamp slot and the whole execution
// order lives in the nested fork paths (Fractal-style sub-ordering). A
// split task forks its two half sorts and then a merge ordered after both
// subtrees — the nested dag order makes the merge a proper join without
// any timestamp arithmetic, something flat timestamps cannot express
// inside one slot. The merge speculates against its half sorts and is
// conflict-aborted until their writes commit, so the app doubles as a
// stress test for abort cascades across fork depths. There is no
// software-parallel version: the point is the nested order, and a thread
// version would just be a sort.
type MSort struct {
	runner
	vals []uint64 // input, fixed at construction
	ref  []uint64 // host-sorted reference
	cut  int      // insertion-sort cutoff
}

func init() {
	Register(AppMeta{
		Name:    "msort",
		Order:   12,
		Summary: "fork-join parallel mergesort in a single nested timestamp slot",
	}, func(s Scale) *MSort {
		switch s {
		case ScaleTiny:
			return NewMSort(64, 8)
		case ScaleSmall:
			return NewMSort(256, 8)
		case ScaleLarge:
			return NewMSort(4096, 16)
		default:
			return NewMSort(1024, 16)
		}
	})
}

// NewMSort builds the benchmark over n pseudo-random values with the
// given insertion-sort cutoff.
func NewMSort(n, cutoff int) *MSort {
	vals := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x % uint64(4*n) // duplicates on purpose: stability is not assumed
	}
	ref := append([]uint64(nil), vals...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	b := &MSort{vals: vals, ref: ref, cut: cutoff}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *MSort) Name() string { return "msort" }

func (b *MSort) verify(load func(uint64) uint64, arr uint64) error {
	for i, want := range b.ref {
		if got := load(arr + 8*uint64(i)); got != want {
			return fmt.Errorf("msort: arr[%d] = %d, want %d", i, got, want)
		}
	}
	return nil
}

// SwarmApp implements Benchmark: split(lo,hi) forks split(lo,mid) [sub 0],
// split(mid,hi) [sub 1] and merge(lo,mid,hi) [sub 2]; the nested dag
// order (a subtree before its next sibling) is exactly mergesort's
// post-order, so the merge commits after both half sorts.
func (b *MSort) SwarmApp() SwarmApp {
	var arr uint64
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		var tmp uint64
		arr, tmp = b.layout(ab.Alloc, ab.Store)
		var split, merge guest.FnID
		split = ab.Fn("split", func(e guest.TaskEnv) {
			lo, hi := e.Arg(0), e.Arg(1)
			e.Work(4)
			if hi-lo <= uint64(b.cut) {
				insertionSort(e, arr, lo, hi)
				return
			}
			mid := lo + (hi-lo)/2
			e.Fork(split, lo, mid)
			e.Fork(split, mid, hi)
			e.Fork(merge, lo, mid, hi)
		})
		merge = ab.Fn("merge", func(e guest.TaskEnv) {
			mergeHalves(e, arr, tmp, e.Arg(0), e.Arg(1), e.Arg(2))
		})
		return []guest.TaskDesc{{Fn: split, TS: 0, Args: [3]uint64{0, uint64(len(b.vals))}}}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, arr) }
	return app
}

// layout allocates the array to sort, holding the input, and the merge
// buffer: the guest memory both flavors use.
func (b *MSort) layout(alloc func(uint64) uint64, store func(addr, val uint64)) (arr, tmp uint64) {
	n := uint64(len(b.vals))
	arr = alloc(8 * n)
	tmp = alloc(8 * n)
	for i, v := range b.vals {
		store(arr+8*uint64(i), v)
	}
	return arr, tmp
}

// insertionSort sorts arr[lo,hi) in place — the base case.
func insertionSort(e guest.Env, arr, lo, hi uint64) {
	for i := lo + 1; i < hi; i++ {
		v := e.Load(arr + 8*i)
		j := i
		for j > lo {
			u := e.Load(arr + 8*(j-1))
			e.Work(1)
			if u <= v {
				break
			}
			e.Store(arr+8*j, u)
			j--
		}
		e.Store(arr+8*j, v)
	}
}

// mergeHalves merges the sorted halves arr[lo,mid) and arr[mid,hi) through
// tmp back into arr[lo,hi).
func mergeHalves(e guest.Env, arr, tmp, lo, mid, hi uint64) {
	e.Work(4)
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		a := e.Load(arr + 8*i)
		c := e.Load(arr + 8*j)
		e.Work(1)
		if a <= c {
			e.Store(tmp+8*k, a)
			i++
		} else {
			e.Store(tmp+8*k, c)
			j++
		}
		k++
	}
	for ; i < mid; i++ {
		e.Store(tmp+8*k, e.Load(arr+8*i))
		k++
	}
	for ; j < hi; j++ {
		e.Store(tmp+8*k, e.Load(arr+8*j))
		k++
	}
	for k = lo; k < hi; k++ {
		e.Store(arr+8*k, e.Load(tmp+8*k))
	}
}

// serialBody is the serial algorithm in the task decomposition's own
// (nested) order: recurse left, recurse right, merge. iterMark flags one
// boundary per base-case sort and per merge — the task grain.
func (b *MSort) serialBody(e guest.Env, arr, tmp uint64, iterMark func()) {
	var rec func(lo, hi uint64)
	rec = func(lo, hi uint64) {
		e.Work(4)
		if hi-lo <= uint64(b.cut) {
			iterMark()
			insertionSort(e, arr, lo, hi)
			return
		}
		mid := lo + (hi-lo)/2
		rec(lo, mid)
		rec(mid, hi)
		iterMark()
		mergeHalves(e, arr, tmp, lo, mid, hi)
	}
	rec(0, uint64(len(b.vals)))
}

// SerialApp implements Benchmark.
func (b *MSort) SerialApp() SerialApp {
	var arr uint64
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			var tmp uint64
			arr, tmp = b.layout(alloc, store)
			return func(e guest.Env, mark func()) { b.serialBody(e, arr, tmp, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, arr) },
	}
}
