package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

func TestSiloSerial(t *testing.T) {
	b := NewSilo(2, 120, 5)
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestSiloParallelOCC(t *testing.T) {
	b := NewSilo(2, 120, 5)
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestSiloParallelOneWarehouse(t *testing.T) {
	// One warehouse: heavy contention, many OCC aborts — must still be
	// serializable.
	b := NewSilo(1, 100, 9)
	if _, err := RunParallel(b, 8); err != nil {
		t.Fatal(err)
	}
}

func TestSiloSwarm(t *testing.T) {
	b := NewSilo(2, 80, 5)
	for _, cores := range []int{1, 4, 16} {
		st, err := b.RunSwarm(core.DefaultConfig(cores))
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		// Each transaction decomposes into several tasks.
		if st.Commits < 3*80 {
			t.Fatalf("only %d commits for 80 transactions", st.Commits)
		}
	}
}

func TestSiloSwarmOneWarehouse(t *testing.T) {
	if testing.Short() {
		t.Skip("contention test")
	}
	// The Fig 13 headline: Swarm scales even with a single warehouse by
	// exploiting intra-transaction parallelism.
	b := NewSilo(1, 150, 7)
	st1, err := b.RunSwarm(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st16, err := b.RunSwarm(core.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(st1.Cycles) / float64(st16.Cycles)
	t.Logf("silo 1wh swarm 16c speedup %.1fx (aborts=%d commits=%d)", sp, st16.Aborts, st16.Commits)
	if sp < 2.5 {
		t.Errorf("silo 16-core speedup %.2fx < 2.5x with one warehouse", sp)
	}
}
