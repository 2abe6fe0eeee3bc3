package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

func testDES() *DES { return NewDES(4, 8, 3, 21) }

func TestDESSerial(t *testing.T) {
	b := testDES()
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestDESParallel(t *testing.T) {
	b := testDES()
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestDESSwarm(t *testing.T) {
	b := testDES()
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

func TestDESSwarmScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	b := NewDES(8, 8, 4, 5)
	st1, err := b.RunSwarm(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st16, err := b.RunSwarm(core.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(st1.Cycles) / float64(st16.Cycles)
	t.Logf("des swarm 16c speedup %.1fx (aborts=%d of %d commits)", sp, st16.Aborts, st16.Commits)
	if sp < 3 {
		t.Errorf("des 16-core speedup %.2fx < 3x", sp)
	}
}
