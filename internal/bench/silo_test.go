package bench

import (
	"strings"
	"sync"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/tpcc"
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

// TestSiloSharedReference: one Silo checks every run against one host
// replay, built at its first verification. A correct run verifies twice,
// two runs from two goroutines at once verify (run under -race in CI),
// and the serial and software-parallel runs of the same instance verify
// too. A run with one corrupted order-line word fails, and the error
// names the table.
func TestSiloSharedReference(t *testing.T) {
	b := NewSilo(2, 80, 5)
	app := b.SwarmApp()
	bk, err := app.Backend(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bk.RunPhase(); err != nil {
		t.Fatal(err)
	}
	load := bk.Mem().Load
	for i := range 2 {
		if err := app.Verify(load); err != nil {
			t.Fatalf("verification %d: %v", i+1, err)
		}
	}
	// A guest memory is not safe for concurrent loads, so each goroutine
	// verifies a run of its own.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = b.RunSwarm(core.DefaultConfig(2))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent run %d: %v", i+1, err)
		}
	}
	if _, err := b.RunSerial(1); err != nil {
		t.Errorf("serial run: %v", err)
	}
	if _, err := RunParallel(b, 4); err != nil {
		t.Errorf("software-parallel run: %v", err)
	}

	l, _ := tpcc.Reference(b.sc, b.txns)
	bad := l.OLAddr(0, 0, 0, 0) + tpcc.FOLAmount*8
	corrupted := func(a uint64) uint64 {
		if a == bad {
			return load(a) + 1
		}
		return load(a)
	}
	err = app.Verify(corrupted)
	if err == nil || !strings.Contains(err.Error(), "tpcc: orderline tuple") {
		t.Errorf("a corrupted order-line word verified with error %v, want a tpcc orderline mismatch", err)
	}
}
