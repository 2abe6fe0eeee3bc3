package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/guest"
)

// TreeBuild constructs a forest of binary search trees top-down: tree t
// occupies timestamp slot t, and within the slot insert(lo,hi) links the
// midpoint key into the tree, then forks insert(lo,mid) [sub 0] and
// insert(mid+1,hi) [sub 1]. An unbalanced BST's final pointer structure
// is a function of its insertion ORDER, so the app is only correct if
// the backends honor the nested fork order exactly: the parent's node
// must link before any subtree node, and the whole left subtree must
// link before the right subtree's first node. The reference replays the
// same order on the host and the verify compares every pointer word.
// Order-dependent pointers leave no meaningful lock-based
// software-parallel version.
type TreeBuild struct {
	runner
	keys  []uint64
	trees int
	// Host reference, same encoding as guest memory: node ids are key
	// indices, stored +1 so 0 means nil.
	refRoot []uint64
	refL    []uint64
	refR    []uint64
}

func init() {
	Register(AppMeta{
		Name:    "treebuild",
		Order:   13,
		Summary: "top-down BST forest where pointer structure depends on nested insertion order",
	}, func(s Scale) *TreeBuild {
		switch s {
		case ScaleTiny:
			return NewTreeBuild(64, 2)
		case ScaleSmall:
			return NewTreeBuild(256, 4)
		case ScaleLarge:
			return NewTreeBuild(4096, 8)
		default:
			return NewTreeBuild(1024, 4)
		}
	})
}

// NewTreeBuild builds the benchmark: n pseudo-random keys split evenly
// over the given number of trees (n must divide evenly).
func NewTreeBuild(n, trees int) *TreeBuild {
	if n%trees != 0 {
		panic("treebuild: key count must divide evenly over the trees")
	}
	keys := make([]uint64, n)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x % uint64(n) // duplicates on purpose: ties walk right
	}
	b := &TreeBuild{
		keys:    keys,
		trees:   trees,
		refRoot: make([]uint64, trees),
		refL:    make([]uint64, n),
		refR:    make([]uint64, n),
	}
	b.runner = runner{b}
	seg := n / trees
	for t := 0; t < trees; t++ {
		b.buildRef(t, uint64(t*seg), uint64((t+1)*seg))
	}
	return b
}

// insertRef links key index mid into tree t's reference BST.
func (b *TreeBuild) insertRef(t int, mid uint64) {
	cur := b.refRoot[t]
	if cur == 0 {
		b.refRoot[t] = mid + 1
		return
	}
	key := b.keys[mid]
	for {
		c := cur - 1
		slot := &b.refR[c]
		if key < b.keys[c] {
			slot = &b.refL[c]
		}
		if *slot == 0 {
			*slot = mid + 1
			return
		}
		cur = *slot
	}
}

// buildRef replays the nested insertion order on the host: parent (mid)
// first, then the whole left half, then the whole right half.
func (b *TreeBuild) buildRef(t int, lo, hi uint64) {
	if lo >= hi {
		return
	}
	mid := lo + (hi-lo)/2
	b.insertRef(t, mid)
	b.buildRef(t, lo, mid)
	b.buildRef(t, mid+1, hi)
}

// Name implements Benchmark.
func (b *TreeBuild) Name() string { return "treebuild" }

func (b *TreeBuild) verify(load func(uint64) uint64, roots, left, right uint64) error {
	for t := 0; t < b.trees; t++ {
		if got := load(roots + 8*uint64(t)); got != b.refRoot[t] {
			return fmt.Errorf("treebuild: root[%d] = %d, want %d", t, got, b.refRoot[t])
		}
	}
	for i := range b.keys {
		if got := load(left + 8*uint64(i)); got != b.refL[i] {
			return fmt.Errorf("treebuild: left[%d] = %d, want %d", i, got, b.refL[i])
		}
		if got := load(right + 8*uint64(i)); got != b.refR[i] {
			return fmt.Errorf("treebuild: right[%d] = %d, want %d", i, got, b.refR[i])
		}
	}
	return nil
}

// SwarmApp implements Benchmark: one root insert per tree at timestamp t;
// every other insert is a same-slot fork. Inserts near the root of a tree
// conflict heavily (they all read the root pointer), so the app exercises
// ordered conflict resolution across fork depths.
func (b *TreeBuild) SwarmApp() SwarmApp {
	var roots, left, right uint64
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		var keys uint64
		keys, left, right, roots = b.layout(ab.Alloc, ab.Store)
		var insert guest.FnID
		insert = ab.Fn("insert", func(e guest.TaskEnv) {
			tr, lo, hi := e.Arg(0), e.Arg(1), e.Arg(2)
			e.Work(2)
			mid := lo + (hi-lo)/2
			key := e.Load(keys + 8*mid)
			cur := e.Load(roots + 8*tr)
			if cur == 0 {
				e.Store(roots+8*tr, mid+1)
			} else {
				for {
					c := cur - 1
					e.Work(1)
					slot := right + 8*c
					if key < e.Load(keys+8*c) {
						slot = left + 8*c
					}
					next := e.Load(slot)
					if next == 0 {
						e.Store(slot, mid+1)
						break
					}
					cur = next
				}
			}
			if mid > lo {
				e.Fork(insert, tr, lo, mid)
			}
			if mid+1 < hi {
				e.Fork(insert, tr, mid+1, hi)
			}
		})
		seg := uint64(len(b.keys) / b.trees)
		descs := make([]guest.TaskDesc, b.trees)
		for t := uint64(0); t < uint64(b.trees); t++ {
			descs[t] = guest.TaskDesc{Fn: insert, TS: t, Args: [3]uint64{t, t * seg, (t + 1) * seg}}
		}
		return descs
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, roots, left, right) }
	return app
}

// serialBody replays the same nested insertion order serially; iterMark
// flags one boundary per insert — the task grain.
func (b *TreeBuild) serialBody(e guest.Env, keys, left, right, roots uint64, iterMark func()) {
	var rec func(tr, lo, hi uint64)
	rec = func(tr, lo, hi uint64) {
		if lo >= hi {
			return
		}
		iterMark()
		e.Work(2)
		mid := lo + (hi-lo)/2
		key := e.Load(keys + 8*mid)
		cur := e.Load(roots + 8*tr)
		if cur == 0 {
			e.Store(roots+8*tr, mid+1)
		} else {
			for {
				c := cur - 1
				e.Work(1)
				slot := right + 8*c
				if key < e.Load(keys+8*c) {
					slot = left + 8*c
				}
				next := e.Load(slot)
				if next == 0 {
					e.Store(slot, mid+1)
					break
				}
				cur = next
			}
		}
		rec(tr, lo, mid)
		rec(tr, mid+1, hi)
	}
	seg := uint64(len(b.keys) / b.trees)
	for t := uint64(0); t < uint64(b.trees); t++ {
		rec(t, t*seg, (t+1)*seg)
	}
}

// layout allocates and initializes the guest arrays every flavor uses.
func (b *TreeBuild) layout(alloc func(uint64) uint64, store func(addr, val uint64)) (keys, left, right, roots uint64) {
	n := uint64(len(b.keys))
	keys = alloc(8 * n)
	left = alloc(8 * n)
	right = alloc(8 * n)
	roots = alloc(8 * uint64(b.trees))
	for i, k := range b.keys {
		store(keys+8*uint64(i), k)
	}
	return
}

// SerialApp implements Benchmark.
func (b *TreeBuild) SerialApp() SerialApp {
	var keys, left, right, roots uint64
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			keys, left, right, roots = b.layout(alloc, store)
			return func(e guest.Env, mark func()) { b.serialBody(e, keys, left, right, roots, mark) }
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, roots, left, right) },
	}
}
