package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/harness"
)

// appList joins the registered app names alphabetically for error
// messages (AppNames itself stays in suite order).
func appList() string {
	names := append([]string(nil), bench.AppNames()...)
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// JobSpec is one simulation request. The zero value of every optional
// field selects the same default as the CLIs, so a minimal submission is
// {"app": "bfs"}. A normalized JobSpec is the singleflight cache key:
// every field participates, so two requests dedupe exactly when the
// simulator guarantees them identical results.
type JobSpec struct {
	// App is a registered benchmark name (GET /apps enumerates them).
	App string `json:"app"`
	// Scale is the input scale: tiny, small, medium or large (default small).
	Scale string `json:"scale,omitempty"`
	// Cores sizes the machine: 1-4 or a multiple of 4 (default 64).
	Cores int `json:"cores,omitempty"`
	// Mapper is the task-mapping policy (default random).
	Mapper string `json:"mapper,omitempty"`
	// Backend is the execution engine: sim (the cycle-level simulator,
	// default), rt (the native speculative runtime) or rt-conservative.
	// Results from different backends never dedupe onto each other — the
	// backend is part of the cache key like every other field.
	Backend string `json:"backend,omitempty"`
	// Seed is the enqueue-placement seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Phases requests per-phase statistics; valid for phased apps only.
	Phases bool `json:"phases,omitempty"`
}

func (j JobSpec) withDefaults() JobSpec {
	if j.Scale == "" {
		j.Scale = "small"
	}
	if j.Cores == 0 {
		j.Cores = 64
	}
	if j.Mapper == "" {
		j.Mapper = "random"
	}
	if j.Backend == "" {
		// Normalized so {"backend":"sim"} and an absent field are one
		// cache entry.
		j.Backend = "sim"
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	return j
}

// Validate checks the spec against the app registry and machine
// constraints, reusing the same validators as the CLIs so every error
// names the valid options.
func (j JobSpec) Validate() error {
	if j.App == "" {
		return fmt.Errorf("missing app (valid: %s)", appList())
	}
	meta, ok := bench.Lookup(j.App)
	if !ok {
		return fmt.Errorf("unknown app %q (valid: %s)", j.App, appList())
	}
	if _, err := bench.ParseScale(j.Scale); err != nil {
		return err
	}
	if err := harness.ValidateCores(j.Cores); err != nil {
		return err
	}
	if err := core.CheckMapper(j.Mapper); err != nil {
		return err
	}
	if err := backend.CheckName(j.Backend); err != nil {
		return err
	}
	if j.Phases && !meta.Phased {
		return fmt.Errorf("app %q is single-phase; phased apps: %s", j.App, strings.Join(phasedAppNames(), ", "))
	}
	return nil
}

func phasedAppNames() []string {
	var names []string
	for _, m := range bench.Apps() {
		if m.Phased {
			names = append(names, m.Name)
		}
	}
	return names
}

// scale returns the parsed Scale of a validated spec.
func (j JobSpec) scale() bench.Scale {
	s, _ := bench.ParseScale(j.Scale)
	return s
}

// machineConfig returns the core configuration a validated spec describes.
func (j JobSpec) machineConfig() core.Config {
	cfg := core.DefaultConfig(j.Cores)
	cfg.Mapper = j.Mapper
	cfg.Backend = j.Backend
	cfg.Seed = j.Seed
	return cfg
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job is one accepted submission and its lifecycle.
type Job struct {
	ID        string
	Spec      JobSpec
	State     string
	Error     string
	CacheHit  bool
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Result    *jobResult
}

// jobResult is a completed simulation, shared read-only between every job
// that deduplicated onto it.
type jobResult struct {
	Stats      core.Stats
	PhaseStats []core.PhaseStats
}

// jobJSON is the wire form of a Job.
type jobJSON struct {
	ID        string            `json:"id"`
	State     string            `json:"state"`
	Spec      JobSpec           `json:"spec"`
	Error     string            `json:"error,omitempty"`
	CacheHit  bool              `json:"cache_hit,omitempty"`
	ElapsedMS int64             `json:"elapsed_ms,omitempty"`
	Stats     *core.Stats       `json:"stats,omitempty"`
	Phases    []core.PhaseStats `json:"phases,omitempty"`
}

func (j Job) json() jobJSON {
	out := jobJSON{ID: j.ID, State: j.State, Spec: j.Spec, Error: j.Error, CacheHit: j.CacheHit}
	if !j.Finished.IsZero() && !j.Started.IsZero() {
		out.ElapsedMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.State == JobDone && j.Result != nil {
		st := j.Result.Stats
		out.Stats = &st
		out.Phases = j.Result.PhaseStats
	}
	return out
}

// jobStore is the in-memory job table. Entries live for the daemon's
// lifetime — job counts are bounded by admission control, and a record is
// a few hundred bytes plus a shared result pointer.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

// create records a new queued job and returns a snapshot of it.
func (s *jobStore) create(spec JobSpec) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Spec:      spec,
		State:     JobQueued,
		Submitted: time.Now(),
	}
	s.jobs[j.ID] = j
	return *j
}

// drop removes a job that was never admitted (queue full).
func (s *jobStore) drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

// get returns a snapshot of a job.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// spec returns a job's specification.
func (s *jobStore) spec(id string) (JobSpec, bool) {
	j, ok := s.get(id)
	return j.Spec, ok
}

// update mutates a job under the store lock.
func (s *jobStore) update(id string, fn func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		fn(j)
	}
}

// snapshot returns copies of every job, newest first not guaranteed —
// callers sort as needed.
func (s *jobStore) snapshot() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	return out
}

// benchCache keeps warm benchmark instances — input generation and host
// reference computation are the expensive, immutable part of a workload —
// shared by every job and session at the same (app, scale). Construction
// is deduplicated by the same error-evicting singleflight cache as
// results.
type benchCache struct {
	memo harness.Memo[benchKey, bench.Benchmark]
}

type benchKey struct {
	app   string
	scale bench.Scale
}

func (c *benchCache) get(app string, scale bench.Scale) (bench.Benchmark, error) {
	b, _, err := c.memo.Do(benchKey{app, scale}, func() (bench.Benchmark, error) {
		return bench.New(app, scale)
	})
	return b, err
}
