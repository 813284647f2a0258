package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"qosrm/internal/api"
	"qosrm/internal/bench"
	"qosrm/internal/client"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/jobstore"
	"qosrm/internal/scenario"
	"qosrm/internal/server"
)

// Serve workload shape: a pool of 8-core, depth-8 churn specs (the
// check set's shape), submitted three to a job. A job is mostly engine
// time: its journal fsyncs (two per spec and one per submit) and its
// polling wait do not speed up or slow down with the host as CPU work
// does, so they would be mis-scaled by the reference kernel, and on
// small 4-core depth-4 specs they are half of each job. Three specs make a job long
// enough (about 40 jobs a second on two cores) that the one job an
// expiry pass stalls each second is 2–3% of jobs, so p99 always falls
// among the stalled jobs rather than on their edge, and short enough
// that a run completes well over the thousand jobs p99 needs.
const (
	servePool  = 240
	serveBatch = 3
	serveCores = 8
	serveDepth = 8
)

// serveSegment is how many jobs run between two reference kernel runs,
// about half a second of jobs.
const serveSegment = 16

// serveTailTop is serve's top tail rung.
const serveTailTop = 99

// jobTTL is how long the server keeps finished jobs. The default hour
// would let the job table and the journal grow with every job served in
// the window, tying peak_rss_mb to throughput; a second makes expiry and
// journal compaction run every second, as in a long-running daemon, so
// both stay at their steady-state size.
const jobTTL = time.Second

// served is one running qosrmd instance: the server, its HTTP front on
// a loopback listener, and its base URL.
type served struct {
	db   *db.DB
	srv  *server.Server
	http *http.Server
	done chan error
	base string
}

// serveSetup builds the suite, saves and reloads the snapshot, starts a
// journaled server on it and waits until /healthz answers — the cold
// start of qosrmd from a fresh database.
func serveSetup(cfg runConfig, i int, tr http.RoundTripper) (*served, []byte, time.Duration, error) {
	t0 := time.Now()
	d, err := db.Build(bench.Suite(), suiteOptions(cfg.workers))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("setup build: %w", err)
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("suite-%d.qosdb", i))
	if err := dbstore.Save(path, d); err != nil {
		return nil, nil, 0, err
	}
	ld, _, err := dbstore.Load(path)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := server.New(ld, server.Options{
		Workers:     cfg.workers,
		JournalPath: filepath.Join(cfg.dir, fmt.Sprintf("journal-%d", i)),
		JobTTL:      jobTTL,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, 0, err
	}
	s := &served{db: ld, srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.http.Serve(ln) }()
	c := newClient(s.base, tr)
	if _, err := c.Health(context.Background()); err != nil {
		s.stop()
		return nil, nil, 0, err
	}
	el := time.Since(t0)
	// Outside the timed set-up: the served database must be
	// byte-identical to the one built.
	built, err1 := snapshot(d)
	loaded, err2 := snapshot(ld)
	if err := errors.Join(err1, err2); err != nil || !bytes.Equal(built, loaded) {
		s.stop()
		return nil, nil, 0, fmt.Errorf("reloaded snapshot differs from the built database (%v)", err)
	}
	return s, loaded, el, nil
}

// stop shuts the HTTP front down (waiting for open requests), then the
// server, and waits for the serve loop to return.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	s.srv.Close()
	<-s.done
}

func newClient(base string, tr http.RoundTripper) *client.Client {
	c := client.New(base)
	c.HTTPClient = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	// No retries: a failed request is a failed operation, not a delay.
	c.MaxRetries = -1
	return c
}

// jobTimes are one served job's client-observed instants and its final
// status, which carries the server's timeline.
type jobTimes struct {
	start, submitted, done time.Time
	status                 *api.JobStatus
}

// pollCap caps client.WaitJob's backoff: the client polls at once, then
// every 2.5–5 ms (jittered). The default 250 ms cap would leave a job's
// latency to the 10–20 ms and 20–40 ms poll steps rather than to the
// server; the wait's share shows as client.notify_ms.
const pollCap = 5 * time.Millisecond

// runJob submits one batch and waits for it to finish.
func runJob(ctx context.Context, c *client.Client, batch []scenario.Spec) (jobTimes, error) {
	jt := jobTimes{start: time.Now()}
	st, err := c.SubmitSweep(ctx, batch)
	jt.submitted = time.Now()
	if err != nil {
		return jt, err
	}
	jt.status, err = c.WaitJob(ctx, st.ID, pollCap)
	jt.done = time.Now()
	return jt, err
}

// runServe is the serve workload: one closed-loop client submitting
// batches of specs to a journaled in-process qosrmd on loopback and
// waiting for each to finish. One client keeps the server's nproc job
// workers busy on the specs of its job without oversubscribing the
// cores; with nproc clients on two cores, clients, HTTP handlers and
// workers contend for the cores and p99 moved from run to run. Every
// served report must be
// byte-identical (as JSON) to an in-process scenario.Sweep of the pool.
func runServe(cfg runConfig, r *report) error {
	tr := &http.Transport{MaxIdleConnsPerHost: cfg.workers}
	defer tr.CloseIdleConnections()
	var (
		s     *served
		ref   []byte
		setup []float64
		kern  = []time.Duration{refKernel(cfg.workers)}
	)
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		si, snap, el, err := serveSetup(cfg, i, tr)
		if err != nil {
			return err
		}
		setup = append(setup, el.Seconds())
		kern = append(kern, refKernel(cfg.workers))
		if ref == nil {
			ref = snap
		} else {
			r.check(bytes.Equal(snap, ref), "set-up %d serves a database different from the first", i)
		}
		if s != nil {
			s.stop()
		}
		s = si
	}
	defer s.stop()
	r.setSetup(setup, kern, "db.Build + dbstore.Save + dbstore.Load + server.New + listener up")

	pool, err := churnSpecs("serve", cfg.seed, servePool, serveCores, serveDepth)
	if err != nil {
		return err
	}
	if err := runCheckSet(s.db, cfg, r); err != nil {
		return err
	}
	refs, err := scenario.Sweep(s.db, pool, cfg.workers)
	if err != nil {
		return fmt.Errorf("in-process run of the pool: %w", err)
	}
	want := make([][]byte, len(pool))
	for i := range pool {
		if want[i], err = json.Marshal(refs[i]); err != nil {
			return err
		}
	}
	if err := startPeakRSS(); err != nil {
		return err
	}

	c := newClient(s.base, tr)
	ctx := context.Background()
	next := 0
	batches := len(pool) / serveBatch
	// job runs the next batch and checks its reports; record receives
	// the job's timeline.
	job := func(record func(jobTimes)) (time.Duration, error) {
		k := next % batches
		next++
		batch := pool[k*serveBatch : (k+1)*serveBatch]
		jt, err := runJob(ctx, c, batch)
		el := jt.done.Sub(jt.start)
		if err != nil {
			return el, err
		}
		if jt.status.State != api.JobDone || len(jt.status.Reports) != len(batch) {
			return el, fmt.Errorf("job %s: state %s with %d reports: %s", jt.status.ID, jt.status.State, len(jt.status.Reports), jt.status.Error)
		}
		for i, rep := range jt.status.Reports {
			got, err := json.Marshal(rep)
			if err != nil || !bytes.Equal(got, want[k*serveBatch+i]) {
				return el, fmt.Errorf("job %s: report %d differs from the in-process scenario.Sweep", jt.status.ID, i)
			}
		}
		if record != nil {
			record(jt)
		}
		return el, nil
	}

	// loop runs jobs back to back until window has passed, with the
	// reference kernel before every serveSegment jobs and after the
	// last, and returns the latencies (ms) of the jobs that passed,
	// scaled to the reference speed and raw.
	loop := func(window time.Duration, record func(jobTimes)) (lat, raw []float64) {
		var (
			els  []float64
			oks  []bool
			kern = []time.Duration{refKernel(cfg.workers)}
		)
		for start := time.Now(); time.Since(start) < window; {
			el, err := job(record)
			els, oks = append(els, ms(el)), append(oks, r.checkErr(err, "job"))
			if len(els)%serveSegment == 0 {
				kern = append(kern, refKernel(cfg.workers))
			}
		}
		if len(els)%serveSegment != 0 {
			kern = append(kern, refKernel(cfg.workers))
		}
		f := speedScales(kern)
		for i, el := range els {
			if oks[i] {
				lat, raw = append(lat, f[i/serveSegment]*el), append(raw, el)
			}
		}
		return lat, raw
	}

	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	lat, raw := loop(window, nil)
	if !cfg.traced {
		r.set("throughput_per_s", 1e3/mean(lat), fmt.Sprintf("(jobs of %d specs per second of job time at reference speed: %d jobs, one client; raw %.2f)", serveBatch, len(lat), 1e3/mean(raw)))
		r.setTimings(lat, raw, serveTailTop)
		return nil
	}

	before, err := scrapeHTTPDurations(ctx, s.base, tr)
	if err != nil {
		return err
	}
	all := &spanLog{t0: time.Now()}
	var respBytes []float64
	tlat, _ := loop(window, func(jt jobTimes) {
		st := jt.status
		root := all.add("job", st.ID, -1, jt.start, jt.done)
		all.add("client.submit", st.ID, root, jt.start, jt.submitted)
		all.add("server.queue_wait", st.ID, root, st.SubmittedAt, st.StartedAt)
		all.add("server.exec", st.ID, root, st.StartedAt, st.FinishedAt)
		all.add("client.notify", st.ID, root, st.FinishedAt, jt.done)
		// The server encodes with a trailing newline.
		if b, err := json.Marshal(st); err == nil {
			respBytes = append(respBytes, float64(len(b)+1))
		}
	})
	after, err := scrapeHTTPDurations(ctx, s.base, tr)
	if err != nil {
		return err
	}

	tot, cnt := all.totals(), all.counts()
	n := float64(cnt["job"])
	per := fmt.Sprintf("(mean of %d traced jobs)", int(n))
	for _, name := range []string{"client.submit", "server.queue_wait", "server.exec", "client.notify"} {
		r.set(name+"_ms", ms(tot[name])/n, per)
	}
	appendMs, err := timeAppends(cfg, pool[:serveBatch])
	if err != nil {
		return err
	}
	r.set("jobstore.append_ms", appendMs, "(median of 50 fsynced appends of a submit record of one batch)")
	var reqBytes float64
	for k := 0; k < batches; k++ {
		b, err := json.Marshal(api.JobRequest{Specs: pool[k*serveBatch : (k+1)*serveBatch]})
		if err != nil {
			return err
		}
		reqBytes += float64(len(b))
	}
	r.set("api.request_bytes", reqBytes/float64(batches), fmt.Sprintf("(mean POST /v1/jobs body over the %d batches)", batches))
	r.set("api.response_bytes", mean(respBytes), "(mean final job status with reports)")
	for _, rt := range []struct{ path, name string }{
		{"/v1/jobs", "jobs_post"}, {"/v1/jobs/{id}", "job_get"},
	} {
		a, b := after[rt.path], before[rt.path]
		calls := a.count - b.count
		r.set("server.http_mean_ms."+rt.name, 1e3*(a.sum-b.sum)/calls,
			fmt.Sprintf("(%s: _sum/_count over %.0f requests)", rt.path, calls))
	}
	um, tm := mean(lat), mean(tlat)
	r.set("trace.overhead_pct", 100*(tm-um)/um, fmt.Sprintf("(mean per job at reference speed: traced %.3f ms vs untraced %.3f ms)", tm, um))
	traceEngine(all, s.db, pool, refs, r)
	all.summary(r.out)
	return all.write(cfg.spans)
}

// timeAppends measures a journal append of a submit record the size of
// one served batch, on a journal of its own.
func timeAppends(cfg runConfig, batch []scenario.Spec) (float64, error) {
	j, _, err := jobstore.Open(filepath.Join(cfg.dir, "append-probe"))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	var times []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		err := j.Append(jobstore.Event{Type: jobstore.EventSubmit, Job: fmt.Sprintf("probe%d", i), Specs: batch})
		times = append(times, ms(time.Since(t0)))
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

type sumCount struct{ sum, count float64 }

// scrapeHTTPDurations reads the per-route _sum and _count of the
// request-duration histogram from /metrics: exact means, never bucket
// quantiles.
func scrapeHTTPDurations(ctx context.Context, base string, tr http.RoundTripper) (map[string]sumCount, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	const family = "qosrmd_http_request_duration_seconds"
	out := make(map[string]sumCount)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		isSum := strings.HasPrefix(line, family+"_sum{")
		if !isSum && !strings.HasPrefix(line, family+"_count{") {
			continue
		}
		lo, hi := strings.Index(line, `path="`), strings.LastIndex(line, `"}`)
		sp := strings.LastIndexByte(line, ' ')
		if lo < 0 || hi < lo || sp < hi {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		path := line[lo+len(`path="`) : hi]
		e := out[path]
		if isSum {
			e.sum = v
		} else {
			e.count = v
		}
		out[path] = e
	}
	return out, sc.Err()
}
