package rt

import (
	"fmt"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

var sink uint64

// BenchmarkStoreRead is one speculative read: a word committed this
// phase (overlay) and a word only the frozen base memory holds (base).
func BenchmarkStoreRead(b *testing.B) {
	const addr = uint64(1 << 20)
	for _, committed := range []bool{true, false} {
		name := "base"
		if committed {
			name = "overlay"
		}
		b.Run(name, func(b *testing.B) {
			m := mem.New()
			m.Store(addr, 1)
			s := newStore(m)
			s.beginPhase()
			if committed {
				s.commitWrite(addr, 2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := s.read(addr)
				sink += v
			}
		})
	}
}

// BenchmarkCommitWrite is one committed word, cycling over a page of
// addresses that already hold overlay words.
func BenchmarkCommitWrite(b *testing.B) {
	s := newStore(mem.New())
	s.beginPhase()
	s.commitWrite(1<<20, 0) // allocate the page's overlay
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
