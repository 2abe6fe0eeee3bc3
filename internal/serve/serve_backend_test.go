package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/backend"
)

// TestBackendJobs: a -backend rt job runs end-to-end through the HTTP
// surface — accepted, executed on the native runtime, and served as JSON
// and CSV — and its committed results agree with the simulator's run of
// the same spec.
func TestBackendJobs(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})

	sim := d.submitAndWait(t, JobSpec{App: "bfs", Scale: "tiny", Cores: 4})
	rt := d.submitAndWait(t, JobSpec{App: "bfs", Scale: "tiny", Cores: 4, Backend: "rt"})
	if sim.State != JobDone || rt.State != JobDone {
		t.Fatalf("states: sim %s (%s), rt %s (%s)", sim.State, sim.Error, rt.State, rt.Error)
	}
	if sim.Stats.Backend != "sim" || rt.Stats.Backend != "rt" {
		t.Fatalf("stats backends: sim %q, rt %q", sim.Stats.Backend, rt.Stats.Backend)
	}
	if rt.Stats.Cycles != 0 || rt.Stats.WallNS == 0 {
		t.Fatalf("rt stats: cycles=%d wall_ns=%d, want no cycles and real wall time",
			rt.Stats.Cycles, rt.Stats.WallNS)
	}
	// The committed schedule is backend-independent: the same tasks
	// commit whichever engine ran the guest program. (Enqueue counts are
	// not comparable — the simulator counts NACK'd re-enqueues.)
	if rt.Stats.Commits != sim.Stats.Commits {
		t.Fatalf("committed work diverged: rt %d commits, sim %d", rt.Stats.Commits, sim.Stats.Commits)
	}

	code, body := d.do(t, http.MethodGet, "/jobs/"+rt.ID+"/csv", nil)
	if code != http.StatusOK {
		t.Fatalf("rt csv: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), ",rt,") {
		t.Fatalf("rt csv row does not carry the backend column: %s", body)
	}
}

// TestBackendCacheKey: sim and rt runs of an otherwise identical spec are
// distinct cache entries — the backend participates in the singleflight
// key — while a repeated rt spec dedupes onto the first run.
func TestBackendCacheKey(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	base := JobSpec{App: "sssp", Scale: "tiny", Cores: 4}

	simJob := d.submitAndWait(t, base)
	rtSpec := base
	rtSpec.Backend = "rt"
	rtJob := d.submitAndWait(t, rtSpec)
	if simJob.CacheHit || rtJob.CacheHit {
		t.Fatalf("cross-backend dedupe: sim hit=%v, rt hit=%v — backends must not share entries",
			simJob.CacheHit, rtJob.CacheHit)
	}
	again := d.submitAndWait(t, rtSpec)
	if !again.CacheHit {
		t.Fatal("repeated rt spec missed the cache")
	}
	// An absent backend field and an explicit "sim" normalize to one key.
	explicit := base
	explicit.Backend = "sim"
	if j := d.submitAndWait(t, explicit); !j.CacheHit {
		t.Fatal(`{"backend":"sim"} missed the cache entry of the defaulted spec`)
	}

	vars := d.adminVars(t)
	if vars["jobs_by_backend.sim"] != 2 || vars["jobs_by_backend.rt"] != 2 {
		t.Fatalf("per-backend counters: sim=%d rt=%d, want 2/2",
			vars["jobs_by_backend.sim"], vars["jobs_by_backend.rt"])
	}
	if vars["cache_hits"] != 2 || vars["cache_misses"] != 2 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 2/2", vars["cache_hits"], vars["cache_misses"])
	}
}

// TestBackendValidationAndRegistry: an invalid backend is a 400 naming
// the valid engines, and /apps advertises the backend list next to the
// app registry.
func TestBackendValidationAndRegistry(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})

	code, body := d.do(t, http.MethodPost, "/jobs", `{"app": "bfs", "backend": "turbo"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d: %s", code, body)
	}
	for _, want := range []string{"unknown backend", "turbo", "sim", "rt-conservative"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("error %q does not mention %q", body, want)
		}
	}

	code, body = d.do(t, http.MethodGet, "/apps", nil)
	if code != http.StatusOK {
		t.Fatalf("/apps: status %d", code)
	}
	var doc struct {
		Backends []string `json:"backends"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Backends) != len(backend.Names()) {
		t.Fatalf("/apps backends = %v, registry has %v", doc.Backends, backend.Names())
	}
}

// TestForkJoinJobs: the nested-timestamp apps run end-to-end through the
// HTTP surface on every backend, commit the same work everywhere, and —
// like the flat apps — keep per-backend cache entries distinct.
func TestForkJoinJobs(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})

	for _, app := range []string{"msort", "treebuild"} {
		base := JobSpec{App: app, Scale: "tiny", Cores: 4}
		sim := d.submitAndWait(t, base)
		if sim.State != JobDone {
			t.Fatalf("%s sim: state %s (%s)", app, sim.State, sim.Error)
		}
		if sim.Stats.Commits == 0 {
			t.Fatalf("%s sim committed nothing", app)
		}
		for _, backend := range []string{"rt", "rt-conservative"} {
			spec := base
			spec.Backend = backend
			job := d.submitAndWait(t, spec)
			if job.State != JobDone {
				t.Fatalf("%s %s: state %s (%s)", app, backend, job.State, job.Error)
			}
			// Fork paths are backend-invariant: the same nested task tree
			// commits whichever engine ran it.
			if job.Stats.Commits != sim.Stats.Commits {
				t.Fatalf("%s committed work diverged: %s %d commits, sim %d",
					app, backend, job.Stats.Commits, sim.Stats.Commits)
			}
			// The backend is part of the cache key even for pathed apps.
			if job.CacheHit {
				t.Fatalf("%s %s dedupe'd onto another backend's entry", app, backend)
			}
		}
		rtSpec := base
		rtSpec.Backend = "rt"
		if again := d.submitAndWait(t, rtSpec); !again.CacheHit {
			t.Fatalf("%s repeated rt spec missed the cache", app)
		}
	}
}

// TestBackendSession: a live phased session on the rt backend steps
// phase by phase against resident runtime state, like a sim session.
func TestBackendSession(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})

	code, body := d.do(t, http.MethodPost, "/sessions",
		JobSpec{App: "incsssp", Scale: "tiny", Cores: 4, Backend: "rt"})
	if code != http.StatusCreated {
		t.Fatalf("open rt session: status %d: %s", code, body)
	}
	var sess sessionJSON
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sess.PhasesTotal; i++ {
		if code, body = d.do(t, http.MethodPost, "/sessions/"+sess.ID+"/step", nil); code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i+1, code, body)
		}
	}
	code, body = d.do(t, http.MethodGet, "/sessions/"+sess.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	var done sessionJSON
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	if done.PhasesDone != done.PhasesTotal || len(done.Phases) != done.PhasesTotal {
		t.Fatalf("session after stepping: %d/%d done, %d phase records",
			done.PhasesDone, done.PhasesTotal, len(done.Phases))
	}
	for _, ph := range done.Phases {
		if ph.Cumulative.Backend != "rt" {
			t.Fatalf("phase %d ran on %q, want rt", ph.Phase, ph.Cumulative.Backend)
		}
	}
}
