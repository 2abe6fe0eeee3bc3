package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/graph"
)

// ---------------------------------------------------------------- kcore --

func TestKCoreSerial(t *testing.T) {
	b := NewKCore(6, 6, 9)
	cyc, err := b.RunSerial(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
}

func TestKCoreParallel(t *testing.T) {
	b := NewKCore(6, 6, 9)
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestKCoreSwarm(t *testing.T) {
	b := NewKCore(6, 6, 9)
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

// TestKCoreReferenceMatchesPeeling cross-checks graph.CoreNumbers against
// the k-core defining property on several seeds: in the subgraph induced
// by {v : core(v) >= k}, every vertex has degree >= k, for every k.
func TestKCoreReferenceMatchesPeeling(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n, edges := graph.Kronecker(6, 6, seed)
		g := graph.FromEdges(n, edges, true)
		cores := graph.CoreNumbers(g)
		for v := 0; v < g.N; v++ {
			k := cores[v]
			if k == 0 {
				continue
			}
			deg := uint64(0)
			lo, hi := g.Neighbors(v)
			for a := lo; a < hi; a++ {
				if cores[g.Dst[a]] >= k {
					deg++
				}
			}
			if deg < k {
				t.Fatalf("seed %d: core[%d]=%d but only %d neighbors with core >= %d", seed, v, k, deg, k)
			}
		}
	}
}

// ---------------------------------------------------------------- color --

func TestColorSerial(t *testing.T) {
	b := NewColor(80, 320, 11)
	if _, err := b.RunSerial(1); err != nil {
		t.Fatal(err)
	}
}

func TestColorParallel(t *testing.T) {
	b := NewColor(80, 320, 11)
	for _, cores := range []int{1, 4, 8} {
		if _, err := RunParallel(b, cores); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestColorSwarm(t *testing.T) {
	b := NewColor(80, 320, 11)
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

// TestColorReferenceIsProper checks the greedy reference is a proper
// coloring (no edge joins two same-colored vertices).
func TestColorReferenceIsProper(t *testing.T) {
	b := NewColor(120, 500, 3)
	for v := 0; v < b.g.N; v++ {
		lo, hi := b.g.Neighbors(v)
		for a := lo; a < hi; a++ {
			if w := int(b.g.Dst[a]); w != v && b.ref[v] == b.ref[w] {
				t.Fatalf("edge (%d, %d) has both endpoints colored %d", v, w, b.ref[v])
			}
		}
	}
}

// --------------------------------------------------------------- stream --

func TestStreamSerial(t *testing.T) {
	b := NewStream(4, 40, 32, 8, 13)
	if _, err := b.RunSerial(1); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSwarm(t *testing.T) {
	b := NewStream(4, 40, 32, 8, 13)
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

// TestStreamNoParallel: stream declares no software-parallel flavor, like
// astar in the paper.
func TestStreamNoParallel(t *testing.T) {
	assertNoParallel(t, NewStream(2, 10, 32, 4, 13))
}

// assertNoParallel fails if b has a software-parallel version
// (TestRegistryMetadata checks the registry agrees).
func assertNoParallel(t *testing.T, b Benchmark) {
	t.Helper()
	if _, ok := b.(Parallel); ok {
		t.Fatalf("%s should not declare a software-parallel version", b.Name())
	}
}

// TestStreamWindowTotals: the reference aggregates conserve the input sum
// (every tuple lands in exactly one window/key cell).
func TestStreamWindowTotals(t *testing.T) {
	b := NewStream(3, 50, 16, 4, 99)
	var want, got uint64
	for _, v := range b.val {
		want += v
	}
	for _, v := range b.ref {
		got += v
	}
	if got != want {
		t.Fatalf("reference sums %d, inputs sum %d", got, want)
	}
}

// ------------------------------------------------------------- registry --

// TestRegistryOrder: the paper's six apps come first in Table 4 order,
// followed by the later additions.
func TestRegistryOrder(t *testing.T) {
	names := AppNames()
	want := []string{"bfs", "sssp", "astar", "msf", "des", "silo", "kcore", "color", "stream", "incsssp", "dsssp", "setcover", "msort", "treebuild"}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
}

// TestRegistryMetadata: every app must build at tiny scale under the name
// it was registered with, and the HasParallel metadata Register derived
// from the app's type must agree with the constructed Benchmark.
func TestRegistryMetadata(t *testing.T) {
	for _, meta := range Apps() {
		b, err := New(meta.Name, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", meta.Name, err)
		}
		if b.Name() != meta.Name {
			t.Errorf("%s: Benchmark.Name() = %q", meta.Name, b.Name())
		}
		if _, ok := b.(Parallel); ok != meta.HasParallel {
			t.Errorf("%s: HasParallel metadata %v, Benchmark implements Parallel = %v", meta.Name, meta.HasParallel, ok)
		}
	}
}

// TestRegisterNeedsConcreteType: Register reads the flavor flags off the
// constructor's result type, so a constructor typed as the Benchmark
// interface would register its app as serial-only; Register panics
// instead.
func TestRegisterNeedsConcreteType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an interface-typed constructor")
		}
	}()
	Register(AppMeta{Name: "untyped"}, func(Scale) Benchmark { return nil })
}

func TestRegistryUnknownApp(t *testing.T) {
	_, err := New("nosuch", ScaleTiny)
	if err == nil {
		t.Fatal("New should fail for an unregistered app")
	}
	// The message lists the registered apps alphabetically (the registry
	// itself stays in suite order); pinned so new registrations keep it.
	want := `bench: unknown app "nosuch" (registered: astar, bfs, color, des, dsssp, incsssp, kcore, msf, msort, setcover, silo, sssp, stream, treebuild)`
	if got := err.Error(); got != want {
		t.Fatalf("error text:\n got: %s\nwant: %s", got, want)
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Fatal("Lookup should miss for an unregistered app")
	}
}

// TestRegistryFigureTags: the figure-membership metadata the harness
// keys on must stay present.
func TestRegistryFigureTags(t *testing.T) {
	for fig, want := range map[string]string{"fig13": "silo", "fig18": "astar"} {
		var found []string
		for _, meta := range Apps() {
			if meta.InFigure(fig) {
				found = append(found, meta.Name)
			}
		}
		if len(found) != 1 || found[0] != want {
			t.Errorf("%s tagged on %v, want exactly [%q]", fig, found, want)
		}
	}
}
