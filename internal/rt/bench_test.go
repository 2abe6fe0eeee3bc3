package rt

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
	"github.com/swarm-sim/swarm/internal/vt"
)

var sink uint64

// BenchmarkStoreRead is one read of the store: a tracked read of a word
// committed this phase (committed) and of a word only the base memory
// has written (base), and the earliest attempt's untracked load of the
// committed word (untracked).
func BenchmarkStoreRead(b *testing.B) {
	const addr = uint64(1 << 20)
	for _, name := range []string{"committed", "base", "untracked"} {
		b.Run(name, func(b *testing.B) {
			m := mem.New()
			m.Store(addr, 1)
			s := newStore(m)
			s.beginPhase()
			if name != "base" {
				s.commitWrite(addr, 2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if name == "untracked" {
				for i := 0; i < b.N; i++ {
					sink += s.load(addr)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				v, _ := s.read(addr)
				sink += v
			}
		})
	}
}

// BenchmarkCommitWrite is one committed word, cycling over a page of
// addresses whose versions a first commit has already allocated.
func BenchmarkCommitWrite(b *testing.B) {
	s := newStore(mem.New())
	s.beginPhase()
	s.commitWrite(1<<20, 0) // materialize the page and its versions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.commitWrite(1<<20+uint64(i%pageWords)*8, uint64(i))
	}
}

// BenchmarkDispatchCommit is the scheduler's cost per task: b.N
// independent root tasks, each a load and a store, enqueued, dispatched,
// executed and committed in one phase.
func BenchmarkDispatchCommit(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := independentRuntime(b, workers, b.N).RunPhase(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAttemptReset is one 40-word attempt on a recycled buffer that
// once held a 4096-word attempt: resetting the buffer and reading the
// words. Its cost must not depend on the largest set the buffer held.
func BenchmarkAttemptReset(b *testing.B) {
	cfg := core.DefaultConfig(1)
	cfg.Backend = "rt"
	r, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	env := newTaskEnv(r, guest.TaskDesc{})
	attempt := func(words uint64) {
		env.reset(guest.TaskDesc{})
		for i := range words {
			sink += env.Load(1<<20 + i*8)
		}
	}
	attempt(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attempt(40)
	}
}

// BenchmarkAttemptStores is one attempt and its commit: the attempt
// increments n words, reading each before it stores it, and then reloads
// all n. The earliest attempt stores in place and its commit keeps the
// stores; a tracked one records its reads, buffers its stores and reads
// them back from its write set, and its commit validates the reads and
// writes the words back.
func BenchmarkAttemptStores(b *testing.B) {
	for _, mode := range []string{"earliest", "tracked"} {
		for _, n := range []uint64{8, 40} {
			b.Run(fmt.Sprintf("%s/%d", mode, n), func(b *testing.B) {
				r, base := startedRuntime(b, 1, incArg0, n)
				t := new(task)
				attempt := func() {
					t.env = r.getEnvLocked(guest.TaskDesc{})
					t.env.earliest = mode == "earliest"
					for i := range n {
						a := base + i*8
						t.env.Store(a, t.env.Load(a)+1)
					}
					for i := range n {
						sink += t.env.Load(base + i*8)
					}
					if !r.commitLocked(t) {
						b.Fatal("commit failed")
					}
				}
				attempt()
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					attempt()
				}
			})
		}
	}
}

// BenchmarkReadyQueue is one pop of the ready minimum and one push of a
// later task, in steady state, on the ready-queue traffic of three
// rt-large cells: bfs keeps two live timestamps about 150 tasks deep,
// sssp about 100 distinct timestamps about 900 deep, and setcover
// all-distinct timestamps about 11,600 deep. Each push lands a random
// step in [1, span] after the task just popped. The heap rows run the
// same traffic through a plain taskHeap.
func BenchmarkReadyQueue(b *testing.B) {
	type queue interface {
		push(*task)
		pop() *task
	}
	for _, shape := range []struct {
		name  string
		depth int
		span  uint64
	}{
		{"bfs", 150, 1},
		{"sssp", 900, 100},
		{"setcover", 11600, 1 << 30},
	} {
		for _, impl := range []string{"radix", "heap"} {
			b.Run(shape.name+"/"+impl, func(b *testing.B) {
				var q queue = new(readyQueue)
				if impl == "heap" {
					q = new(taskHeap)
				}
				rng := rand.New(rand.NewSource(1))
				steps := make([]uint64, 4096)
				for i := range steps {
					steps[i] = 1 + rng.Uint64()%shape.span
				}
				var seq uint64
				step := func() {
					t := q.pop()
					seq++
					t.vt = vt.Time{TS: t.vt.TS + steps[seq%uint64(len(steps))], Cycle: seq}
					q.push(t)
				}
				tasks := make([]task, shape.depth)
				for i := range tasks {
					seq++
					tasks[i].vt.Cycle = seq
					q.push(&tasks[i])
				}
				for range 20 * shape.depth {
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					step()
				}
			})
		}
	}
}
