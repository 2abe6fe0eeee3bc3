package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/serve"
)

// pollInterval is the fixed wait between status polls of a job that is
// not done yet. The first poll follows the submit at once.
const pollInterval = time.Millisecond

// swarmdClients is the number of closed-loop clients, each on its own
// keep-alive connection.
const swarmdClients = 2

// jobTimeout fails a job that is not done this long after its submit, so
// a stuck daemon cannot hold the run past its time limit.
const jobTimeout = 30 * time.Second

// sliceLen is the length of one slice of the measured window. The clients
// pause between slices while the host's speed is read (calib.go), and
// jobs_per_s is the median of the slices' job rates, so a slow stretch of a
// few seconds does not move it.
const sliceLen = time.Second

// jobRequest is the body of POST /jobs. Fields left out take the daemon's
// defaults.
type jobRequest struct {
	App   string `json:"app"`
	Scale string `json:"scale"`
	Cores int    `json:"cores"`
	Seed  int64  `json:"seed"`
}

// jobStats is the part of a job's Stats the benchmark checks.
type jobStats struct {
	Cycles, Events, Commits, Aborts uint64
}

func statsOf(st core.Stats) jobStats {
	return jobStats{st.Cycles, st.Events, st.Commits, st.Aborts}
}

// jobReply is the part of GET /jobs/{id} the benchmark reads.
type jobReply struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Error     string    `json:"error"`
	CacheHit  bool      `json:"cache_hit"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Stats     *jobStats `json:"stats"`
}

// Every job is a tiny-scale run on 4 simulated cores. Uncached jobs
// alternate between these apps with fresh seeds; cached jobs repeat one of
// cachedSeeds x uncachedApps, computed during set-up.
var (
	uncachedApps = []string{"sssp", "des"}
	cachedSeeds  = []int64{1, 2, 3, 4}
)

func tinyJob(app string, seed int64) jobRequest {
	return jobRequest{App: app, Scale: "tiny", Cores: 4, Seed: seed}
}

// cachedSpecs lists the 8 specs warmed during set-up.
func cachedSpecs() []jobRequest {
	var specs []jobRequest
	for _, app := range uncachedApps {
		for _, s := range cachedSeeds {
			specs = append(specs, tinyJob(app, s))
		}
	}
	return specs
}

// jobSample is one job's timings.
type jobSample struct {
	cached    bool
	traced    bool
	hit       bool
	latMS     float64 // submit to observed done
	submitMS  float64
	pollMS    []float64
	elapsedMS float64 // server-reported, 1 ms resolution
}

// daemon is an in-process swarmd on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: swarmdClients})
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the job pool down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// client is one closed-loop submitter with its own connection.
type client struct {
	http *http.Client
	url  string
	refs map[jobRequest]jobStats
	rng  *rand.Rand
	next []bool // queued kinds: true = cached
	nUnc int
	// backoffs counts 503 refusals.
	backoffs int
}

func newClient(url string, refs map[jobRequest]jobStats, seed int64) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: jobTimeout},
		url:  url,
		refs: refs,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// nextJob picks the next job. Kinds come in pairs, one of each in a
// seeded order, so the mix stays even; a cached job repeats a seeded pick
// of the warmed specs, an uncached one takes a fresh seed.
func (c *client) nextJob() (jobRequest, bool) {
	if len(c.next) == 0 {
		first := c.rng.Intn(2) == 0
		c.next = []bool{first, !first}
	}
	cached := c.next[0]
	c.next = c.next[1:]
	if cached {
		specs := cachedSpecs()
		return specs[c.rng.Intn(len(specs))], true
	}
	app := uncachedApps[c.nUnc%len(uncachedApps)]
	c.nUnc++
	// Seeds above 1<<40 never meet the warmed seeds.
	return tinyJob(app, 1<<40|c.rng.Int63n(1<<40)), false
}

// do sends one request and decodes a JSON reply into out.
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// runJob submits one job and polls it to done. A refusal, an HTTP error,
// a failed job or a result that differs from the direct run of its spec
// is an error. A traced job records a job span with its submit and poll
// requests as children, under the job id.
func (c *client) runJob(spec jobRequest, cached bool, tr *tracer) (jobSample, error) {
	s := jobSample{cached: cached, traced: tr != nil}
	body, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	type req struct{ start, end time.Time }
	var polls []req
	start := time.Now()
	var j jobReply
	code, err := c.do(http.MethodPost, "/jobs", body, &j)
	submitted := time.Now()
	s.submitMS = msSince(start, submitted)
	if code == http.StatusServiceUnavailable {
		c.backoffs++
		time.Sleep(pollInterval)
		return s, err
	}
	if err != nil {
		return s, err
	}
	for j.State != serve.JobDone && j.State != serve.JobFailed {
		if time.Since(start) > jobTimeout {
			return s, fmt.Errorf("job %s is %s after %s", j.ID, j.State, jobTimeout)
		}
		if len(polls) > 0 {
			time.Sleep(pollInterval)
		}
		p0 := time.Now()
		if _, err := c.do(http.MethodGet, "/jobs/"+j.ID, nil, &j); err != nil {
			return s, err
		}
		polls = append(polls, req{p0, time.Now()})
	}
	end := time.Now()
	s.latMS = msSince(start, end)
	s.hit = j.CacheHit
	s.elapsedMS = float64(j.ElapsedMS)
	for _, p := range polls {
		s.pollMS = append(s.pollMS, msSince(p.start, p.end))
	}
	if tr != nil {
		jsp := tr.record(0, j.ID, "job", start, end)
		tr.record(jsp, j.ID, "submit", start, submitted)
		for _, p := range polls {
			tr.record(jsp, j.ID, "poll", p.start, p.end)
		}
	}
	switch {
	case j.State == serve.JobFailed:
		return s, fmt.Errorf("job %s failed: %s", j.ID, j.Error)
	case j.Stats == nil || j.Stats.Commits == 0:
		return s, fmt.Errorf("job %s is done without stats", j.ID)
	case cached && *j.Stats != c.refs[spec]:
		return s, fmt.Errorf("job %s (%+v): stats %+v, direct run %+v", j.ID, spec, *j.Stats, c.refs[spec])
	}
	return s, nil
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// loop runs jobs back to back until the deadline. In a traced run,
// tracing is on during every other half second, so traced and untraced
// jobs share conditions.
func (c *client) loop(t0, deadline time.Time, tr *tracer) ([]jobSample, tally) {
	var samples []jobSample
	var t tally
	for time.Now().Before(deadline) {
		var jtr *tracer
		if tr != nil && int(time.Since(t0)/(time.Second/2))%2 == 1 {
			jtr = tr
		}
		spec, cached := c.nextJob()
		s, err := c.runJob(spec, cached, jtr)
		t.record(fmt.Sprintf("job %+v", spec), err)
		if err == nil {
			samples = append(samples, s)
		}
	}
	return samples, t
}

// swarmdSetup computes the direct RunSwarm of every cached spec, starts a
// daemon and runs each cached spec through it once, checking the result.
func swarmdSetup(rep *report) (*daemon, map[jobRequest]jobStats, error) {
	refs := map[jobRequest]jobStats{}
	for _, app := range uncachedApps {
		b, err := bench.New(app, bench.ScaleTiny)
		if err != nil {
			return nil, nil, err
		}
		for _, seed := range cachedSeeds {
			cfg := core.DefaultConfig(4)
			cfg.Seed = seed
			st, err := b.RunSwarm(cfg)
			rep.tally.record(fmt.Sprintf("direct %s seed %d", app, seed), err)
			refs[tinyJob(app, seed)] = statsOf(st)
		}
	}
	d, err := startDaemon()
	if err != nil {
		return nil, nil, err
	}
	c := newClient(d.url, refs, 0)
	for _, spec := range cachedSpecs() {
		_, err := c.runJob(spec, true, nil)
		rep.tally.record(fmt.Sprintf("warm %+v", spec), err)
	}
	c.http.CloseIdleConnections()
	return d, refs, nil
}

// swarmdJobs is the daemon under a closed loop of cached and uncached
// jobs.
func swarmdJobs(rc *runCtx) *report {
	rep := newReport()
	// speeds collects every reading of the host's speed (calib.go) in the
	// run. Their median converts all of the run's wall times to reference
	// time: one reading wavers by a tenth, the median of dozens does not.
	speeds := []float64{hostSpeed()}
	const reps = 9
	var secs []float64
	var d *daemon
	var refs map[jobRequest]jobStats
	for k := 0; k < reps; k++ {
		if d != nil {
			rep.tally.record("daemon stop", d.stop())
		}
		runtime.GC()
		sp := rc.tr.start(0, fmt.Sprintf("setup%d", k), "setup")
		t0 := time.Now()
		var err error
		d, refs, err = swarmdSetup(rep)
		secs = append(secs, time.Since(t0).Seconds())
		rc.tr.end(sp, nil)
		if err != nil {
			rep.tally.record("daemon start", err)
			return rep
		}
	}
	speeds = append(speeds, hostSpeed())

	clients := make([]*client, swarmdClients)
	for i := range clients {
		clients[i] = newClient(d.url, refs, rc.seed*swarmdClients+int64(i))
	}
	// run drives every client for dur and returns their good jobs and the
	// wall time until the last job ended.
	run := func(dur time.Duration, tr *tracer) ([]jobSample, time.Duration) {
		t0 := time.Now()
		deadline := t0.Add(dur)
		var mu sync.Mutex
		var all []jobSample
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, t := c.loop(t0, deadline, tr)
				mu.Lock()
				all = append(all, s...)
				rep.tally.merge(t)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return all, time.Since(t0)
	}
	run(time.Second, nil) // warm-up: connections, allocator and caches
	m0 := readMem()
	var samples []jobSample
	var rates []float64 // good jobs per wall second, by slice
	for t0 := time.Now(); time.Since(t0) < rc.seconds; {
		s, wall := run(sliceLen, rc.tr)
		speeds = append(speeds, hostSpeed())
		samples = append(samples, s...)
		rates = append(rates, float64(len(s))/wall.Seconds())
	}
	mem := readMem().sub(m0)
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	rep.tally.record("daemon stop", d.stop())

	// scale is reference time per wall time.
	scale := refScale(median(speeds), jobsRefExp)
	rep.add("setup_s", "s", median(secs)*scale, reps)
	rep.alias["setup_s"] = "setup_s"
	var unc, cac []float64
	for _, s := range samples {
		if s.cached {
			cac = append(cac, s.latMS*scale)
		} else {
			unc = append(unc, s.latMS*scale)
		}
	}
	n := len(samples)
	rep.add("jobs_per_s", "jobs/s", median(rates)/scale, len(rates))
	addLatency(rep, "job", unc)
	addLatency(rep, "cached_job", cac)
	rep.add("allocs_per_job", "allocs", ratio(float64(mem.mallocs), float64(n)), n)
	rep.add("ref_wall_ms", "ms", median(speeds)/1e6, len(speeds))
	rep.addPeakRSS()
	rep.alias["work_per_s"] = "jobs_per_s"
	rep.alias["latency_ms"] = "job_p50_ms"
	rep.alias["allocs_per_op"] = "allocs_per_job"
	rep.notes = append(rep.notes,
		fmt.Sprintf("swarmd poll interval %s; %d clients, closed loop", pollInterval, swarmdClients),
		fmt.Sprintf("jobs_per_s is the median rate of %d slices of %s, %d jobs in all", len(rates), sliceLen, n))
	if rc.tr == nil {
		return rep
	}
	addServeLayer(rep, samples, clients)
	return rep
}

// addLatency adds the median and the highest resolvable percentile of
// one class of job latencies.
func addLatency(rep *report, class string, ms []float64) {
	l := summarize(ms)
	rep.add(class+"_p50_ms", "ms", l.p50, l.n)
	if l.resolved {
		rep.add(class+"_"+percentileName(l.tailQ)+"_ms", "ms", l.tail, l.n)
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("%s: %d samples resolve no tail percentile", class, l.n))
	}
}

// addServeLayer adds the daemon's per-layer metrics from the traced jobs.
func addServeLayer(rep *report, samples []jobSample, clients []*client) {
	var traced, untraced []float64
	var submit, poll, elapsed, wait []float64
	var polls, hits, jobs int
	for _, s := range samples {
		if !s.cached {
			if s.traced {
				traced = append(traced, s.latMS)
			} else {
				untraced = append(untraced, s.latMS)
			}
		}
		if !s.traced {
			continue
		}
		jobs++
		submit = append(submit, s.submitMS)
		poll = append(poll, s.pollMS...)
		polls += len(s.pollMS)
		if s.hit {
			hits++
		}
		if !s.cached {
			elapsed = append(elapsed, s.elapsedMS)
			wait = append(wait, s.latMS-s.elapsedMS)
		}
	}
	backoffs := 0
	for _, c := range clients {
		backoffs += c.backoffs
	}
	rep.add("serve.submit_ms", "ms", median(submit), len(submit))
	rep.add("serve.poll_ms", "ms", median(poll), len(poll))
	rep.add("serve.polls_per_job", "count", ratio(float64(polls), float64(jobs)), jobs)
	rep.add("serve.job_elapsed_ms", "ms", median(elapsed), len(elapsed))
	rep.add("serve.queue_wait_ms", "ms", median(wait), len(wait))
	rep.add("serve.cache_hit_ratio", "fraction", ratio(float64(hits), float64(jobs)), jobs)
	rep.add("serve.backoffs", "count", float64(backoffs), jobs)
	rep.add("trace.overhead_frac", "fraction", ratio(median(traced), median(untraced))-1, len(traced))
}
