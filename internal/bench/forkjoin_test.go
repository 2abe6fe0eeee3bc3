package bench

import (
	"sort"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
)

// TestForkJoinScales: both apps construct at every registered scale under
// their registry names (the per-scale input parameters are part of the
// registration, so a broken switch arm would otherwise only surface in a
// -scale sweep).
func TestForkJoinScales(t *testing.T) {
	for _, name := range []string{"msort", "treebuild"} {
		for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge} {
			b, err := New(name, s)
			if err != nil {
				t.Fatalf("%s @ %s: %v", name, s, err)
			}
			if b.Name() != name {
				t.Fatalf("%s @ %s: Name() = %q", name, s, b.Name())
			}
		}
	}
}

// TestForkJoinSerialApp: the oracle-facing SerialApp flavor runs the same
// serial bodies the RunSerial entry points use; drive both through a
// fresh serial machine and verify against the host references.
func TestForkJoinSerialApp(t *testing.T) {
	ms := NewMSort(64, 8)
	m := smp.NewSerialMachine(1)
	body := ms.SerialApp().Build(m.SetupAlloc, m.Mem().Store)
	if cyc := m.Run(func(e guest.Env) { body(e, func() {}) }); cyc == 0 {
		t.Fatal("msort SerialApp: no cycles")
	}

	tb := NewTreeBuild(64, 2)
	m = smp.NewSerialMachine(1)
	body = tb.SerialApp().Build(m.SetupAlloc, m.Mem().Store)
	if cyc := m.Run(func(e guest.Env) { body(e, func() {}) }); cyc == 0 {
		t.Fatal("treebuild SerialApp: no cycles")
	}
}

// TestForkJoinVerifyRejects: the verifiers actually fail on wrong guest
// memory (a verifier that never fires proves nothing about the runs that
// pass it).
func TestForkJoinVerifyRejects(t *testing.T) {
	ms := NewMSort(64, 8)
	if err := ms.verify(func(uint64) uint64 { return ^uint64(0) }, 0); err == nil ||
		!strings.Contains(err.Error(), "msort: arr[0]") {
		t.Fatalf("msort verify accepted garbage: %v", err)
	}
	tb := NewTreeBuild(64, 2)
	if err := tb.verify(func(uint64) uint64 { return ^uint64(0) }, 0, 8, 16); err == nil ||
		!strings.Contains(err.Error(), "treebuild: root[0]") {
		t.Fatalf("treebuild verify accepted garbage: %v", err)
	}
}

// ---------------------------------------------------------------- msort --

func TestMSortSerial(t *testing.T) {
	b := NewMSort(64, 8)
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestMSortSwarm(t *testing.T) {
	b := NewMSort(64, 8)
	for _, cores := range []int{1, 4, 16} {
		st, err := b.RunSwarm(core.DefaultConfig(cores))
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if st.Commits == 0 {
			t.Fatal("no commits")
		}
	}
}

// TestMSortReference: the host reference is a sorted permutation of the
// input (same multiset, nondecreasing), with genuine duplicates so the
// guest merge cannot silently assume distinct keys.
func TestMSortReference(t *testing.T) {
	b := NewMSort(128, 8)
	if !sort.SliceIsSorted(b.ref, func(i, j int) bool { return b.ref[i] < b.ref[j] }) {
		t.Fatal("reference not sorted")
	}
	count := map[uint64]int{}
	for _, v := range b.vals {
		count[v]++
	}
	dup := false
	for _, v := range b.ref {
		count[v]--
		if count[v] > 0 {
			dup = true
		}
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("reference is not a permutation of the input: value %d off by %d", v, c)
		}
	}
	if !dup {
		t.Fatal("input has no duplicate keys; the merge's stability assumptions go untested")
	}
}

// TestMSortNoParallel: msort's whole point is nested in-slot ordering; a
// software-threaded flavor would just be sort.Slice.
func TestMSortNoParallel(t *testing.T) {
	assertNoParallel(t, NewMSort(64, 8))
}

// ------------------------------------------------------------ treebuild --

func TestTreeBuildSerial(t *testing.T) {
	b := NewTreeBuild(64, 2)
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestTreeBuildSwarm(t *testing.T) {
	b := NewTreeBuild(64, 2)
	for _, cores := range []int{1, 4, 16} {
		st, err := b.RunSwarm(core.DefaultConfig(cores))
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if st.Commits == 0 {
			t.Fatal("no commits")
		}
	}
}

// TestTreeBuildReferenceIsSearchTree: every reference tree satisfies the
// BST invariant (left subtree keys < node key, right subtree keys >= node
// key, ties walking right) and contains each of its range's keys exactly
// once.
func TestTreeBuildReferenceIsSearchTree(t *testing.T) {
	b := NewTreeBuild(128, 4)
	per := len(b.keys) / 4
	for tr := 0; tr < 4; tr++ {
		seen := make(map[uint64]bool)
		var walk func(node uint64, lo, hi uint64, haveLo, haveHi bool)
		walk = func(node uint64, lo, hi uint64, haveLo, haveHi bool) {
			if node == 0 {
				return
			}
			id := node - 1 // stored as index+1; 0 is nil
			if seen[id] {
				t.Fatalf("tree %d: node %d linked twice", tr, id)
			}
			seen[id] = true
			k := b.keys[id]
			if haveLo && k < lo {
				t.Fatalf("tree %d: key %d below subtree bound %d", tr, k, lo)
			}
			if haveHi && k >= hi {
				t.Fatalf("tree %d: key %d at or above subtree bound %d", tr, k, hi)
			}
			walk(b.refL[id], lo, k, haveLo, true)
			walk(b.refR[id], k, hi, true, haveHi)
		}
		walk(b.refRoot[tr], 0, 0, false, false)
		if len(seen) != per {
			t.Fatalf("tree %d links %d nodes, want %d", tr, len(seen), per)
		}
		for i := tr * per; i < (tr+1)*per; i++ {
			if !seen[uint64(i)] {
				t.Fatalf("tree %d: key index %d never linked", tr, i)
			}
		}
	}
}

func TestTreeBuildNoParallel(t *testing.T) {
	assertNoParallel(t, NewTreeBuild(64, 2))
}
