package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

func TestBFSSerial(t *testing.T) {
	b := NewBFS(20, 15)
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestBFSParallel(t *testing.T) {
	b := NewBFS(20, 15)
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestBFSSwarm(t *testing.T) {
	b := NewBFS(20, 15)
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

func TestSSSPSerial(t *testing.T) {
	b := NewSSSP(15, 15, 11)
	if _, err := b.RunSerial(1); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPParallel(t *testing.T) {
	b := NewSSSP(15, 15, 11)
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestSSSPSwarm(t *testing.T) {
	b := NewSSSP(15, 15, 11)
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

// TestSwarmSpeedupShape: on a moderately sized input, 16-core Swarm must
// beat 1-core Swarm by a sane factor, and Swarm must scale past the
// level-synchronous baseline on the deep mesh.
func TestSwarmSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	b := NewSSSP(40, 40, 3)
	st1, err := b.RunSwarm(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st16, err := b.RunSwarm(core.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(st1.Cycles) / float64(st16.Cycles)
	t.Logf("sssp swarm 16-core speedup: %.1fx (1c=%d cycles, 16c=%d cycles, aborts=%d)",
		sp, st1.Cycles, st16.Cycles, st16.Aborts)
	if sp < 4 {
		t.Errorf("16-core Swarm speedup %.2fx < 4x: speculation is not uncovering parallelism", sp)
	}
}

func TestBFSSwarmVsParallelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	// Deep, narrow mesh: level-synchronous PBFS has tiny frontiers.
	b := NewBFS(150, 6)
	serial, err := b.RunSerial(16)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := b.RunSwarm(core.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bfs 16c: serial=%d parallel=%d swarm=%d (swarm vs par %.1fx)",
		serial, par, sw.Cycles, float64(par)/float64(sw.Cycles))
	if sw.Cycles >= par {
		t.Errorf("Swarm (%d cycles) not faster than level-synchronous parallel (%d) on a deep mesh", sw.Cycles, par)
	}
}
