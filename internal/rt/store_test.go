package rt

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// TestStoreReadsValidate races lock-free readers against the committer.
// A read may pair a value with an older version while a commit is
// landing. Validation, like the scheduler's, holds the lock commits hold,
// so by then the version has moved on: every pair whose version still
// matches must be exactly what the commit of that version wrote. One hot
// word sits in a page no leaf covers when the readers start, so the
// directory grows under them. Commits store in place: afterwards, with
// no flush, the base memory holds each word's last committed value, and
// its version counts its commits.
func TestStoreReadsValidate(t *testing.T) {
	hot := []uint64{1 << 12, 1<<12 + 8, 1 << 40}
	enc := func(addr, ver uint64) uint64 {
		if ver == 0 {
			return 0 // the base word
		}
		return addr ^ ver*0x9e3779b97f4a7c15
	}
	s := newStore(mem.New())
	s.beginPhase()

	var commitMu sync.Mutex
	valid := func(addr, ver uint64) bool {
		commitMu.Lock()
		defer commitMu.Unlock()
		return s.version(addr) == ver
	}
	var stop atomic.Bool
	var checked atomic.Uint64
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, a := range hot {
					val, ver := s.read(a)
					if !valid(a, ver) {
						continue // the reading task would abort
					}
					if val != enc(a, ver) {
						t.Errorf("addr %#x: read (%#x, v%d) validates, but commit v%d wrote %#x", a, val, ver, ver, enc(a, ver))
						return
					}
					if ver != 0 {
						checked.Add(1)
					}
				}
			}
		}()
	}
	// Commit until the readers have validated plenty of committed words,
	// so reads and commits overlap even if the readers start late; the
	// cap ends the run if the readers stop early.
	commits := make([]uint64, len(hot))
	for i := 0; i < 30000 || checked.Load() < 1000 && i < 3_000_000; i++ {
		a := hot[i%len(hot)]
		commits[i%len(hot)]++
		commitMu.Lock()
		s.commitWrite(a, enc(a, s.version(a)+1))
		commitMu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if n := checked.Load(); n < 1000 {
		t.Fatalf("readers validated only %d committed words", n)
	}

	for i, a := range hot {
		if got, want := s.base.Load(a), enc(a, commits[i]); got != want {
			t.Errorf("memory at %#x = %#x, want the last commit's %#x", a, got, want)
		}
		if v := s.version(a); v != commits[i] {
			t.Errorf("version of %#x = %d, want %d commits", a, v, commits[i])
		}
	}
}

// TestStoreGrowsMidPhase: a task allocates a region past every page (and
// every directory leaf) present at phase start and writes it; a later
// task of the same phase must read the committed word back. The commit
// creates the page in guest memory itself, so once RunPhase returns the
// memory holds the word before any host access touches the page.
func TestStoreGrowsMidPhase(t *testing.T) {
	const cell, out = uint64(1 << 12), uint64(1<<12 + 8)
	const far = leafPages << pageShift // one leaf's span
	writer := func(e guest.TaskEnv) {
		a := e.Alloc(far) + far - mem.WordBytes
		e.Store(a, 99)
		e.Store(cell, a)
	}
	reader := func(e guest.TaskEnv) {
		e.Store(out, e.Load(e.Load(cell))+1)
	}
	for _, cores := range []int{1, 4} {
		r, err := New(testConfig(t, cores, "rt"))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.SetProgram(program([]guest.TaskFn{writer, reader}, []string{"writer", "reader"}))
		r.Mem().Store(out, 1) // one page registered at phase start
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 0})
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 1, TS: 1})
		if _, err := r.RunPhase(); err != nil {
			t.Fatalf("cores=%d: RunPhase: %v", cores, err)
		}
		// Snapshot and Pages materialize nothing, unlike Load.
		got := r.Mem().Snapshot()
		a := got[cell]
		if a < far {
			t.Fatalf("cores=%d: region at %#x, want past %#x", cores, a, far)
		}
		if want := map[uint64]uint64{cell: a, a: 99, out: 100}; !reflect.DeepEqual(got, want) {
			t.Errorf("cores=%d: memory %v, want %v (far word 99, reader's 100)", cores, got, want)
		}
		if n := r.Mem().Pages(); n != 2 {
			t.Errorf("cores=%d: %d pages, want the base page and the far one", cores, n)
		}
	}
}

// TestHighAddressRoundTrip: words near the top of the address space
// behave in rt exactly as in mem.Memory, whether they reach a phase
// through the base memory or through a commit, and across phases.
func TestHighAddressRoundTrip(t *testing.T) {
	const hi = uint64(1) << 62
	fns := []guest.TaskFn{
		func(e guest.TaskEnv) { e.Store(hi+8, e.Load(hi)+1) },
		func(e guest.TaskEnv) { e.Store(hi+16, e.Load(hi+8)*2) },
		func(e guest.TaskEnv) { e.Store(hi, e.Load(hi+8)+e.Load(hi+16)) },
	}
	ref := mem.New()
	ref.Store(hi, 5)
	ref.Store(hi+8, ref.Load(hi)+1)
	ref.Store(hi+16, ref.Load(hi+8)*2)
	ref.Store(hi, ref.Load(hi+8)+ref.Load(hi+16))

	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program(fns, []string{"inc", "double", "sum"}))
	r.Mem().Store(hi, 5)
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 0})
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 1, TS: 1})
	if _, err := r.RunPhase(); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 2, TS: 0})
	if _, err := r.RunPhase(); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if got, want := r.Mem().Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("rt memory %v, mem.Memory %v", got, want)
	}
}
