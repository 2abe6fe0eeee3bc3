package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/harness"
)

// testDaemon is an in-process swarmd: the Server plus httptest listeners
// for both surfaces, torn down (with drain) when the test ends.
type testDaemon struct {
	srv   *Server
	api   *httptest.Server
	admin *httptest.Server
}

func newTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	srv := New(cfg)
	d := &testDaemon{
		srv:   srv,
		api:   httptest.NewServer(srv.Handler()),
		admin: httptest.NewServer(srv.AdminHandler()),
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		d.api.Close()
		d.admin.Close()
	})
	return d
}

// do issues a request against the API listener and returns status + body.
func (d *testDaemon) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string:
			rd = strings.NewReader(b)
		default:
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
	}
	req, err := http.NewRequest(method, d.api.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submitAndWait submits a spec and polls until the job leaves the queue,
// returning the final job document.
func (d *testDaemon) submitAndWait(t *testing.T, spec JobSpec) jobJSON {
	t.Helper()
	code, body := d.do(t, http.MethodPost, "/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return d.waitJob(t, j.ID)
}

func (d *testDaemon) waitJob(t *testing.T, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := d.do(t, http.MethodGet, "/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, code, body)
		}
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.State == JobDone || j.State == JobFailed {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobJSON{}
}

// adminVars fetches and decodes the admin /debug/vars counters. The
// scalar counters come back flat; the per-backend submission counts in
// the nested jobs_by_backend object are flattened to
// "jobs_by_backend.<name>" keys.
func (d *testDaemon) adminVars(t *testing.T) map[string]int64 {
	t.Helper()
	resp, err := http.Get(d.admin.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Swarmd map[string]json.RawMessage `json:"swarmd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	out := make(map[string]int64, len(doc.Swarmd))
	for k, raw := range doc.Swarmd {
		var n int64
		if json.Unmarshal(raw, &n) == nil {
			out[k] = n
			continue
		}
		var nested map[string]int64
		if json.Unmarshal(raw, &nested) == nil {
			for sub, v := range nested {
				out[k+"."+sub] = v
			}
		}
	}
	return out
}

// directCSV computes the reference CSV for a spec by driving the bench
// layer the same way cmd/swarmsim does.
func directCSV(t *testing.T, spec JobSpec) string {
	t.Helper()
	spec = spec.withDefaults()
	b, err := bench.New(spec.App, spec.scale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if spec.Phases {
		phases, err := bench.RunPhases(b.(bench.Sessioned), spec.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]harness.PhasePoint, len(phases))
		for i, ph := range phases {
			pts[i] = harness.PhasePoint{App: spec.App, Cores: spec.Cores, Stats: ph}
		}
		if err := harness.WritePhasesCSV(&buf, pts); err != nil {
			t.Fatal(err)
		}
	} else {
		st, err := b.RunSwarm(spec.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := harness.WriteStatsCSV(&buf, spec.App, st); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestJobLifecycle: submit → queued/running → done, stats populated, and
// the CSV endpoint byte-identical to a direct single-shot run of the same
// configuration — the swarmsim-equivalence contract CI also checks.
func TestJobLifecycle(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	spec := JobSpec{App: "bfs", Scale: "tiny", Cores: 4}

	code, body := d.do(t, http.MethodPost, "/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || (j.State != JobQueued && j.State != JobRunning) {
		t.Fatalf("fresh job: %+v", j)
	}

	final := d.waitJob(t, j.ID)
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.Cycles == 0 || final.Stats.Commits == 0 {
		t.Fatalf("done job has no stats: %+v", final.Stats)
	}

	code, csv := d.do(t, http.MethodGet, "/jobs/"+j.ID+"/csv", nil)
	if code != http.StatusOK {
		t.Fatalf("csv: status %d: %s", code, csv)
	}
	if want := directCSV(t, spec); string(csv) != want {
		t.Fatalf("daemon CSV diverges from direct run:\n got: %q\nwant: %q", csv, want)
	}
}

// TestPhasedJobCSV: a phases:true job returns the per-phase CSV, again
// byte-identical to the bench layer.
func TestPhasedJobCSV(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	spec := JobSpec{App: "incsssp", Scale: "tiny", Cores: 4, Phases: true}
	j := d.submitAndWait(t, spec)
	if j.State != JobDone {
		t.Fatalf("job finished %s: %s", j.State, j.Error)
	}
	if len(j.Phases) == 0 {
		t.Fatal("phased job carries no per-phase stats")
	}
	code, csv := d.do(t, http.MethodGet, "/jobs/"+j.ID+"/csv", nil)
	if code != http.StatusOK {
		t.Fatalf("csv: status %d: %s", code, csv)
	}
	if want := directCSV(t, spec); string(csv) != want {
		t.Fatalf("phased CSV diverges from direct run:\n got: %q\nwant: %q", csv, want)
	}
}

// TestDuplicateSpecCacheHit: the second submission of an identical spec is
// served from the result cache — observed both on the job document and on
// the admin port's expvar counters.
func TestDuplicateSpecCacheHit(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 2})
	spec := JobSpec{App: "bfs", Scale: "tiny", Cores: 4}

	first := d.submitAndWait(t, spec)
	if first.State != JobDone || first.CacheHit {
		t.Fatalf("first run: state %s, cache_hit %v", first.State, first.CacheHit)
	}
	second := d.submitAndWait(t, spec)
	if second.State != JobDone || !second.CacheHit {
		t.Fatalf("second run: state %s, cache_hit %v — want a cache hit", second.State, second.CacheHit)
	}
	if first.Stats.Cycles != second.Stats.Cycles || first.Stats.Commits != second.Stats.Commits {
		t.Fatal("cache returned different stats for the same spec")
	}

	vars := d.adminVars(t)
	if vars["cache_hits"] != 1 || vars["cache_misses"] != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1", vars["cache_hits"], vars["cache_misses"])
	}
	if vars["jobs_submitted"] != 2 || vars["jobs_completed"] != 2 || vars["jobs_failed"] != 0 {
		t.Fatalf("counters: %v", vars)
	}

	// A different seed is a different key: no hit.
	third := d.submitAndWait(t, JobSpec{App: "bfs", Scale: "tiny", Cores: 4, Seed: 7})
	if third.State != JobDone || third.CacheHit {
		t.Fatalf("distinct seed: state %s, cache_hit %v", third.State, third.CacheHit)
	}
}

// TestBadRequests: malformed JSON and invalid specs are 400s, and every
// validation error names the valid options so the client can self-correct.
func TestBadRequests(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	cases := []struct {
		name   string
		body   string
		wantIn string
	}{
		{"malformed json", `{"app": `, "malformed"},
		{"unknown field", `{"app": "bfs", "corse": 8}`, "corse"},
		{"missing app", `{}`, "valid:"},
		{"unknown app", `{"app": "nope"}`, "bfs"},
		{"unknown app lists fork-join apps", `{"app": "qsort"}`, "msort, setcover, silo, sssp, stream, treebuild"},
		{"bad scale", `{"app": "bfs", "scale": "galactic"}`, "tiny"},
		{"bad cores", `{"app": "bfs", "cores": 7}`, "multiple of 4"},
		{"bad mapper", `{"app": "bfs", "mapper": "psychic"}`, "random"},
		{"removed simworkers option", `{"app": "bfs", "simworkers": 4}`, "simworkers"},
		{"removed stealing mapper", `{"app": "bfs", "mapper": "stealing"}`, "hint, random"},
		{"phases on single-phase app", `{"app": "bfs", "phases": true}`, "incsssp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := d.do(t, http.MethodPost, "/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", code, body)
			}
			if !strings.Contains(string(body), tc.wantIn) {
				t.Fatalf("error %q does not mention %q", body, tc.wantIn)
			}
		})
	}

	if code, _ := d.do(t, http.MethodGet, "/jobs/j999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
	if code, _ := d.do(t, http.MethodGet, "/jobs/j999999/csv", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job csv: status %d", code)
	}
}

// TestConcurrentSubmissionsByteIdentical: a burst of concurrent
// submissions — including duplicates racing each other — all complete, and
// every job's CSV is byte-identical to a serial run of its spec. This is
// the service-level restatement of the simulator's determinism contract.
func TestConcurrentSubmissionsByteIdentical(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 4})
	specs := []JobSpec{
		{App: "bfs", Scale: "tiny", Cores: 4},
		{App: "bfs", Scale: "tiny", Cores: 4, Seed: 2},
		{App: "bfs", Scale: "tiny", Cores: 8},
		{App: "incsssp", Scale: "tiny", Cores: 4},
	}
	// Serial references, computed before any daemon traffic.
	want := make(map[int]string, len(specs))
	for i, sp := range specs {
		want[i] = directCSV(t, sp)
	}

	const dup = 3 // each spec submitted this many times, racing
	type result struct {
		idx int
		csv string
		err error
	}
	results := make(chan result, len(specs)*dup)
	var wg sync.WaitGroup
	for i := range specs {
		for k := 0; k < dup; k++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j := d.submitAndWait(t, specs[i])
				if j.State != JobDone {
					results <- result{i, "", fmt.Errorf("job %s: %s", j.State, j.Error)}
					return
				}
				code, csv := d.do(t, http.MethodGet, "/jobs/"+j.ID+"/csv", nil)
				if code != http.StatusOK {
					results <- result{i, "", fmt.Errorf("csv status %d", code)}
					return
				}
				results <- result{i, string(csv), nil}
			}(i)
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("spec %d: %v", r.idx, r.err)
		}
		if r.csv != want[r.idx] {
			t.Fatalf("spec %d: concurrent CSV diverges from serial run:\n got: %q\nwant: %q",
				r.idx, r.csv, want[r.idx])
		}
	}
	// The duplicates must have deduplicated: one computation per distinct
	// spec, everything else a hit.
	vars := d.adminVars(t)
	if vars["cache_misses"] != int64(len(specs)) {
		t.Fatalf("cache_misses = %d, want %d (one per distinct spec)", vars["cache_misses"], len(specs))
	}
	if vars["cache_hits"] != int64(len(specs)*(dup-1)) {
		t.Fatalf("cache_hits = %d, want %d", vars["cache_hits"], len(specs)*(dup-1))
	}
}

// TestGracefulShutdownDrains: every job accepted before Shutdown completes
// during the drain, and admission is refused afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 16})
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	// Queue several jobs behind a single worker so some are still
	// pending when the drain starts.
	var ids []string
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(JobSpec{App: "bfs", Scale: "tiny", Cores: 4, Seed: int64(i + 1)})
		resp, err := http.Post(api.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
		var j jobJSON
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Every accepted job drained to completion.
	for _, id := range ids {
		j, ok := srv.jobs.get(id)
		if !ok {
			t.Fatalf("job %s vanished during drain", id)
		}
		if j.State != JobDone {
			t.Fatalf("job %s left in state %s after drain", id, j.State)
		}
	}

	// Admission is closed: a post-drain submission is 503.
	body, _ := json.Marshal(JobSpec{App: "bfs", Scale: "tiny", Cores: 4})
	resp, err := http.Post(api.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "shutting down") {
		t.Fatalf("post-drain error: %s", data)
	}
}

// TestQueueFullBackpressure: a zero-worker... not possible; instead a
// single worker with queue depth 1 and a burst must produce at least one
// 503 with Retry-After while the accepted jobs still finish.
func TestQueueFullBackpressure(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1})
	var accepted []string
	rejected := 0
	for i := 0; i < 12; i++ {
		code, body := d.do(t, http.MethodPost, "/jobs",
			JobSpec{App: "bfs", Scale: "tiny", Cores: 4, Seed: int64(i + 1)})
		switch code {
		case http.StatusAccepted:
			var j jobJSON
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, j.ID)
		case http.StatusServiceUnavailable:
			rejected++
			if !strings.Contains(string(body), "queue full") {
				t.Fatalf("503 body: %s", body)
			}
		default:
			t.Fatalf("status %d: %s", code, body)
		}
	}
	if rejected == 0 {
		t.Skip("burst never filled the queue on this machine")
	}
	for _, id := range accepted {
		if j := d.waitJob(t, id); j.State != JobDone {
			t.Fatalf("accepted job %s finished %s", id, j.State)
		}
	}
	// Rejected submissions leave no orphan records.
	if n := len(d.srv.jobs.snapshot()); n != len(accepted) {
		t.Fatalf("job store holds %d records, want %d accepted", n, len(accepted))
	}
}

// TestSessionLifecycle: open a live phased session, step it through every
// phase (verifying against a one-shot phased run), and check stepping past
// the end is 409 and close is terminal.
func TestSessionLifecycle(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	spec := JobSpec{App: "incsssp", Scale: "tiny", Cores: 4}

	code, body := d.do(t, http.MethodPost, "/sessions", spec)
	if code != http.StatusCreated {
		t.Fatalf("open session: status %d: %s", code, body)
	}
	var sess sessionJSON
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" || sess.PhasesTotal == 0 || sess.PhasesDone != 0 {
		t.Fatalf("fresh session: %+v", sess)
	}

	for k := 0; k < sess.PhasesTotal; k++ {
		code, body := d.do(t, http.MethodPost, "/sessions/"+sess.ID+"/step", nil)
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", k+1, code, body)
		}
		var step struct {
			PhasesDone int `json:"phases_done"`
		}
		if err := json.Unmarshal(body, &step); err != nil {
			t.Fatal(err)
		}
		if step.PhasesDone != k+1 {
			t.Fatalf("step %d: phases_done = %d", k+1, step.PhasesDone)
		}
	}

	// Past the last phase: 409, not 500.
	code, body = d.do(t, http.MethodPost, "/sessions/"+sess.ID+"/step", nil)
	if code != http.StatusConflict {
		t.Fatalf("step past end: status %d: %s", code, body)
	}

	// The session's accumulated phases match a one-shot phased job.
	code, body = d.do(t, http.MethodGet, "/sessions/"+sess.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	var full sessionJSON
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Phases) != sess.PhasesTotal {
		t.Fatalf("session reports %d phases, want %d", len(full.Phases), sess.PhasesTotal)
	}
	phasedSpec := spec
	phasedSpec.Phases = true
	job := d.submitAndWait(t, phasedSpec)
	if job.State != JobDone {
		t.Fatalf("reference job: %s: %s", job.State, job.Error)
	}
	for i := range full.Phases {
		if !reflect.DeepEqual(full.Phases[i], job.Phases[i]) {
			t.Fatalf("phase %d: session %+v != job %+v", i+1, full.Phases[i], job.Phases[i])
		}
	}

	code, _ = d.do(t, http.MethodDelete, "/sessions/"+sess.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if code, _ = d.do(t, http.MethodGet, "/sessions/"+sess.ID, nil); code != http.StatusNotFound {
		t.Fatalf("closed session still resolves: status %d", code)
	}
}

// TestSessionErrors: non-phased apps are rejected with the phased-app
// list, and the pool cap produces 503s that clear when a session closes.
func TestSessionErrors(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1, MaxSessions: 1})

	code, body := d.do(t, http.MethodPost, "/sessions", JobSpec{App: "bfs", Scale: "tiny", Cores: 4})
	if code != http.StatusBadRequest {
		t.Fatalf("bfs session: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "incsssp") {
		t.Fatalf("error does not name the phased apps: %s", body)
	}

	spec := JobSpec{App: "incsssp", Scale: "tiny", Cores: 4}
	code, body = d.do(t, http.MethodPost, "/sessions", spec)
	if code != http.StatusCreated {
		t.Fatalf("open: status %d: %s", code, body)
	}
	var sess sessionJSON
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}

	code, body = d.do(t, http.MethodPost, "/sessions", spec)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap open: status %d: %s", code, body)
	}
	if vars := d.adminVars(t); vars["sessions_open"] != 1 {
		t.Fatalf("sessions_open = %d", vars["sessions_open"])
	}

	if code, _ = d.do(t, http.MethodDelete, "/sessions/"+sess.ID, nil); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if code, _ = d.do(t, http.MethodPost, "/sessions", spec); code != http.StatusCreated {
		t.Fatalf("open after close: status %d", code)
	}

	if code, _ = d.do(t, http.MethodPost, "/sessions/s999999/step", nil); code != http.StatusNotFound {
		t.Fatalf("step unknown session: status %d", code)
	}
	if code, _ = d.do(t, http.MethodDelete, "/sessions/s999999", nil); code != http.StatusNotFound {
		t.Fatalf("close unknown session: status %d", code)
	}
}

// TestAppsAndHealth: the registry endpoint reflects bench metadata and
// both surfaces answer health probes.
func TestAppsAndHealth(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})

	code, body := d.do(t, http.MethodGet, "/apps", nil)
	if code != http.StatusOK {
		t.Fatalf("/apps: status %d", code)
	}
	var doc struct {
		Apps []appJSON `json:"apps"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Apps) != len(bench.AppNames()) {
		t.Fatalf("/apps lists %d apps, registry has %d", len(doc.Apps), len(bench.AppNames()))
	}
	byName := make(map[string]appJSON)
	for _, a := range doc.Apps {
		if a.Summary == "" {
			t.Errorf("app %s has no summary", a.Name)
		}
		byName[a.Name] = a
	}
	if !byName["incsssp"].Phased {
		t.Error("incsssp not marked phased in /apps")
	}
	if byName["bfs"].Phased {
		t.Error("bfs marked phased in /apps")
	}
	// The fork-join (nested-timestamp) apps are advertised like any flat
	// app: present, summarized, single-phase, no software-parallel flavor.
	for _, name := range []string{"msort", "treebuild"} {
		a, ok := byName[name]
		if !ok {
			t.Errorf("fork-join app %s missing from /apps", name)
			continue
		}
		if a.Phased || a.HasParallel {
			t.Errorf("%s: phased=%v has_parallel=%v, want false/false", name, a.Phased, a.HasParallel)
		}
	}

	for _, url := range []string{d.api.URL + "/healthz", d.admin.URL + "/healthz"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
	}
}

// TestAdminSurface: pprof and expvar respond on the admin handler, and
// the API handler does NOT expose them — the whole point of the split.
func TestAdminSurface(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})

	resp, err := http.Get(d.admin.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "heap profile") {
		t.Fatalf("admin heap profile: status %d", resp.StatusCode)
	}

	vars := d.adminVars(t)
	for _, key := range []string{"jobs_submitted", "cache_hits", "cache_misses", "queue_depth", "jobs_in_flight", "sessions_open", "uptime_seconds"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}

	// The public API surface must not leak the debug handlers.
	resp, err = http.Get(d.api.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable on the public API: status %d", resp.StatusCode)
	}
	resp, err = http.Get(d.api.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expvar reachable on the public API: status %d", resp.StatusCode)
	}
}

// TestJobCSVNotReady: CSV for an unfinished or failed job is 409.
func TestJobCSVNotReady(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1})
	// A medium job would race; instead fabricate states via the store.
	j := d.srv.jobs.create(JobSpec{App: "bfs"}.withDefaults())
	if code, body := d.do(t, http.MethodGet, "/jobs/"+j.ID+"/csv", nil); code != http.StatusConflict {
		t.Fatalf("queued-job csv: status %d: %s", code, body)
	}
	d.srv.jobs.update(j.ID, func(job *Job) {
		job.State = JobFailed
		job.Error = "synthetic failure"
	})
	code, body := d.do(t, http.MethodGet, "/jobs/"+j.ID+"/csv", nil)
	if code != http.StatusConflict {
		t.Fatalf("failed-job csv: status %d", code)
	}
	if !strings.Contains(string(body), "synthetic failure") {
		t.Fatalf("failed-job csv body: %s", body)
	}
}

// TestJobStore exercises the store directly: ids are sequential,
// snapshots are copies, drop forgets, update mutates under the lock.
func TestJobStore(t *testing.T) {
	st := newJobStore()
	a := st.create(JobSpec{App: "bfs"})
	b := st.create(JobSpec{App: "sssp"})
	if a.ID == b.ID || a.State != JobQueued {
		t.Fatalf("create: %+v %+v", a, b)
	}
	if spec, ok := st.spec(b.ID); !ok || spec.App != "sssp" {
		t.Fatalf("spec: %+v %v", spec, ok)
	}
	st.update(a.ID, func(j *Job) { j.State = JobRunning })
	if got, _ := st.get(a.ID); got.State != JobRunning {
		t.Fatalf("update did not stick: %+v", got)
	}
	// Snapshots are copies: mutating one must not reach the store.
	snap := st.snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d jobs", len(snap))
	}
	snap[0].State = "mangled"
	for _, j := range st.snapshot() {
		if j.State == "mangled" {
			t.Fatal("snapshot aliases store memory")
		}
	}
	st.drop(a.ID)
	if _, ok := st.get(a.ID); ok {
		t.Fatal("dropped job still resolves")
	}
}

// TestRunJobCanceled: a job whose context is already dead when a worker
// picks it up fails with a clear error instead of simulating.
func TestRunJobCanceled(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	j := srv.jobs.create(JobSpec{App: "bfs"}.withDefaults())
	srv.cancel()
	srv.runJob(srv.ctx, j.ID)
	got, _ := srv.jobs.get(j.ID)
	if got.State != JobFailed || !strings.Contains(got.Error, "canceled") {
		t.Fatalf("canceled job: %+v", got)
	}
	if srv.jobsFailed.Value() != 1 {
		t.Fatalf("jobs_failed = %d", srv.jobsFailed.Value())
	}
}

// TestComputeErrors: compute surfaces bench-construction failures (the
// error-evicting cache must not pin them) and defends against a phased
// request reaching a single-phase app.
func TestComputeErrors(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if _, err := srv.compute(JobSpec{App: "no-such-app"}.withDefaults()); err == nil {
		t.Fatal("unknown app: want an error")
	}
	spec := JobSpec{App: "bfs", Scale: "tiny", Cores: 4, Phases: true}.withDefaults()
	if _, err := srv.compute(spec); err == nil {
		t.Fatal("phased compute on single-phase app: want an error")
	}
	// And the happy phased path straight through compute.
	res, err := srv.compute(JobSpec{App: "incsssp", Scale: "tiny", Cores: 4, Phases: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseStats) == 0 || res.Stats.Cycles == 0 {
		t.Fatalf("phased compute result: %+v", res)
	}
}
