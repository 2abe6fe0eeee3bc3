// Package serve implements swarmd, the simulation-as-a-service daemon:
// a long-running HTTP/JSON front end over the deterministic simulator.
// Clients POST simulation jobs (app, scale, cores, mapper, backend, seed,
// phases); the daemon runs them on a bounded harness worker pool and
// serves results as JSON or CSV. Because every simulation is a pure
// function of its specification, identical concurrent submissions are
// deduplicated through a singleflight result cache — the error-evicting
// harness.Memo, so one transient failure never poisons a configuration —
// and a job's answer is byte-identical to a one-shot `swarmsim` run of
// the same configuration. (Native rt backends are the one caveat: their
// committed results are deterministic but their wall-clock and abort
// counts are not, so a cache hit replays the first run's timing.)
//
// The service splits two listeners, cozy-stack style: the public API
// (jobs, sessions, app registry, health) and an admin port carrying
// net/http/pprof and expvar counters (jobs served, cache hits, in-flight,
// queue depth) that must never be exposed with the API. Graceful shutdown
// drains: admission stops, every accepted job completes, then the process
// exits.
//
// Phased workloads get live sessions: POST /sessions opens a warm machine
// parked at its initial quiescent point, and each POST /sessions/{id}/step
// advances one phase against resident state — incsssp-style incremental
// resubmission as a service.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/harness"
)

// Config sizes the daemon.
type Config struct {
	// Workers bounds concurrently running simulations (<= 0 selects
	// runtime.NumCPU via the harness pool).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs; submissions past
	// it are answered 503 (default 64).
	QueueDepth int
	// MaxSessions bounds live phased sessions (default 8; each holds a
	// warm simulated machine resident in memory).
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	return c
}

// Server is the swarmd daemon: job execution, result cache, session pool
// and the two HTTP surfaces (API and admin).
type Server struct {
	cfg      Config
	runner   *harness.Runner
	jobs     *jobStore
	benches  *benchCache
	sessions *sessionPool
	results  harness.Memo[JobSpec, *jobResult]

	// Operational counters, exposed on the admin port's /debug/vars.
	// The map is local, not expvar-published: tests run many Servers in
	// one process and global registration would collide.
	vars          *expvar.Map
	jobsSubmitted expvar.Int
	jobsCompleted expvar.Int
	jobsFailed    expvar.Int
	cacheHits     expvar.Int
	cacheMisses   expvar.Int
	sessionsOpen  expvar.Int
	// jobsByBackend counts submissions per execution backend
	// (jobs_by_backend.sim / .rt / .rt-conservative).
	jobsByBackend expvar.Map
	started       time.Time

	ctx    context.Context
	cancel context.CancelFunc
}

// New builds a Server and starts its worker pool. Call Shutdown to drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		runner:  harness.NewPool(cfg.Workers).Serve(cfg.QueueDepth),
		jobs:    newJobStore(),
		benches: &benchCache{},
		started: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
	}
	s.sessions = newSessionPool(cfg.MaxSessions, s.benches, &s.sessionsOpen)
	s.vars = new(expvar.Map).Init()
	s.vars.Set("jobs_submitted", &s.jobsSubmitted)
	s.vars.Set("jobs_completed", &s.jobsCompleted)
	s.vars.Set("jobs_failed", &s.jobsFailed)
	s.vars.Set("cache_hits", &s.cacheHits)
	s.vars.Set("cache_misses", &s.cacheMisses)
	s.vars.Set("sessions_open", &s.sessionsOpen)
	s.jobsByBackend.Init()
	s.vars.Set("jobs_by_backend", &s.jobsByBackend)
	s.vars.Set("queue_depth", expvar.Func(func() any { return s.runner.QueueDepth() }))
	s.vars.Set("jobs_in_flight", expvar.Func(func() any { return s.runner.InFlight() }))
	s.vars.Set("uptime_seconds", expvar.Func(func() any { return int64(time.Since(s.started).Seconds()) }))
	return s
}

// Handler returns the public API surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /jobs/{id}/csv", s.handleJobCSV)
	mux.HandleFunc("GET /apps", s.handleApps)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /sessions", s.handleOpenSession)
	mux.HandleFunc("GET /sessions/{id}", s.handleGetSession)
	mux.HandleFunc("POST /sessions/{id}/step", s.handleStepSession)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleCloseSession)
	return mux
}

// AdminHandler returns the admin surface: pprof, expvar counters and a
// health probe. Serve it on a separate, non-public listener.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Shutdown drains gracefully: admission stops (further submissions get
// 503), every accepted job — queued or in flight — completes, then the
// base context is cancelled. A ctx deadline bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.runner.Drain(ctx)
	s.cancel()
	return err
}

// ------------------------------------------------------------- job flow --

// handleSubmitJob admits one simulation job: validate against the
// registries (400 names the valid options), record it, and hand it to the
// bounded runner (503 on a full queue or during drain).
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	job := s.jobs.create(spec)
	err := s.runner.Submit(s.ctx, func(ctx context.Context) { s.runJob(ctx, job.ID) })
	if err != nil {
		s.jobs.drop(job.ID)
		switch {
		case errors.Is(err, harness.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "job queue full (depth %d); retry later", s.cfg.QueueDepth)
		case errors.Is(err, harness.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		default:
			writeError(w, http.StatusInternalServerError, "submit: %v", err)
		}
		return
	}
	s.jobsSubmitted.Add(1)
	s.jobsByBackend.Add(spec.Backend, 1)
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.json())
}

// runJob executes one accepted job on a worker goroutine, deduplicating
// identical specifications through the singleflight result cache.
func (s *Server) runJob(ctx context.Context, id string) {
	if ctx.Err() != nil {
		s.jobs.update(id, func(j *Job) {
			j.State = JobFailed
			j.Error = "canceled before start"
			j.Finished = time.Now()
		})
		s.jobsFailed.Add(1)
		return
	}
	s.jobs.update(id, func(j *Job) {
		j.State = JobRunning
		j.Started = time.Now()
	})
	spec, _ := s.jobs.spec(id)
	res, hit, err := s.results.Do(spec, func() (*jobResult, error) {
		return s.compute(spec)
	})
	if hit {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	s.jobs.update(id, func(j *Job) {
		j.Finished = time.Now()
		j.CacheHit = hit
		if err != nil {
			j.State = JobFailed
			j.Error = err.Error()
			return
		}
		j.State = JobDone
		j.Result = res
	})
	if err != nil {
		s.jobsFailed.Add(1)
	} else {
		s.jobsCompleted.Add(1)
	}
}

// compute runs the simulation a spec describes. The benchmark instance
// (input generation, host references) comes warm from the shared cache;
// the simulated machine itself is built fresh — determinism requires a
// run to never observe another run's machine state.
func (s *Server) compute(spec JobSpec) (*jobResult, error) {
	b, err := s.benches.get(spec.App, spec.scale())
	if err != nil {
		return nil, err
	}
	cfg := spec.machineConfig()
	if spec.Phases {
		sb, ok := b.(bench.Sessioned)
		if !ok {
			// Validate() rejects this; defend anyway.
			return nil, fmt.Errorf("app %q is single-phase", spec.App)
		}
		phases, err := bench.RunPhases(sb, cfg)
		if err != nil {
			return nil, err
		}
		return &jobResult{Stats: phases[len(phases)-1].Cumulative, PhaseStats: phases}, nil
	}
	st, err := b.RunSwarm(cfg)
	if err != nil {
		return nil, err
	}
	return &jobResult{Stats: st}, nil
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.json())
}

// handleJobCSV serves a finished job's result in the exact format of
// `swarmsim -csv` (single-run header + row), or the per-phase CSV for
// phased jobs — machine-readable and diffable against the CLI.
func (s *Server) handleJobCSV(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	switch job.State {
	case JobDone:
	case JobFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", job.ID, job.Error)
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s; results are available once it is done", job.ID, job.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if job.Spec.Phases {
		pts := make([]harness.PhasePoint, len(job.Result.PhaseStats))
		for i, ph := range job.Result.PhaseStats {
			pts[i] = harness.PhasePoint{App: job.Spec.App, Cores: job.Spec.Cores, Stats: ph}
		}
		if err := harness.WritePhasesCSV(w, pts); err != nil {
			writeError(w, http.StatusInternalServerError, "csv: %v", err)
		}
		return
	}
	if err := harness.WriteStatsCSV(w, job.Spec.App, job.Result.Stats); err != nil {
		writeError(w, http.StatusInternalServerError, "csv: %v", err)
	}
}

// ------------------------------------------------------- registry + ops --

// appJSON is one /apps entry, straight from the bench registry metadata.
type appJSON struct {
	Name        string   `json:"name"`
	Summary     string   `json:"summary"`
	HasParallel bool     `json:"has_parallel"`
	Phased      bool     `json:"phased"`
	Figures     []string `json:"figures,omitempty"`
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	metas := bench.Apps()
	out := make([]appJSON, len(metas))
	for i, m := range metas {
		out[i] = appJSON{
			Name:        m.Name,
			Summary:     m.Summary,
			HasParallel: m.HasParallel,
			Phased:      m.Phased,
			Figures:     m.Figures,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"apps": out, "backends": core.BackendNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleVars emits the daemon's counters as JSON under the "swarmd" key —
// the expvar format, served from the server-local map so concurrent
// daemons in one process never fight over global registration.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"swarmd\": %s}\n", s.vars.String())
}

// --------------------------------------------------------------- helpers --

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
