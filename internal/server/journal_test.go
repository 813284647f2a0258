package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qosrm/internal/faultinject"
	"qosrm/internal/jobstore"
	"qosrm/internal/scenario"
)

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// decodeBody decodes a JSON response body (without closing it; the
// caller's defer does).
func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitJobDone polls a job (white box) until it completes.
func waitJobDone(t *testing.T, srv *Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j := srv.jobByID(id)
		if j == nil {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.status()
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d)", id, st.State, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalServesFinishedAcrossRestart: a completed job's reports are
// replayed from the journal by the next boot — same ID, same state,
// bit-identical reports, no recomputation (asserted via the run
// counter).
func TestJournalServesFinishedAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	srv, err := New(sharedDB(t), Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	specs := []scenario.Spec{testSpec("jnl-a"), testSpec("jnl-b")}
	j, _, err := srv.submit(specs, "jnl-key")
	if err != nil {
		t.Fatal(err)
	}
	want := waitJobDone(t, srv, j.id)
	srv.Close()

	srv2, err := New(sharedDB(t), Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	j2 := srv2.jobByID(j.id)
	if j2 == nil {
		t.Fatalf("job %s not replayed", j.id)
	}
	got := j2.status()
	if got.State != JobDone {
		t.Fatalf("replayed job state %s, want done", got.State)
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatal("replayed reports differ from the original run")
	}
	if n := srv2.metrics.specsRun.Load(); n != 0 {
		t.Fatalf("restart recomputed %d scenarios for a finished job", n)
	}
	if srv2.metrics.journalReplays.Load() == 0 {
		t.Fatal("journal_replays_total did not count the replay")
	}
}

// TestJournalResumesPendingAcrossRestart: scenarios acknowledged but
// never finished (only a submit event in the journal — the shape a
// SIGKILL mid-sweep leaves) are re-enqueued by the next boot and run to
// the same reports an uninterrupted sweep produces.
func TestJournalResumesPendingAcrossRestart(t *testing.T) {
	d := sharedDB(t)
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	specs := []scenario.Spec{testSpec("resume-a"), testSpec("resume-b")}

	// Fabricate the crash remnant directly: an acked submit, no finishes.
	jnl, _, err := jobstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := jobstore.Event{Type: jobstore.EventSubmit, Job: "j7", Key: "resume-key", Specs: specs}
	if err := jnl.Append(ev); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	srv, err := New(d, Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := waitJobDone(t, srv, "j7")
	if st.State != JobDone || st.Key != "resume-key" {
		t.Fatalf("resumed job ended %+v", st)
	}
	want, err := scenario.Sweep(d, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(st.Reports[i], want[i]) {
			t.Fatalf("resumed report %d differs from uninterrupted sweep", i)
		}
	}
	// New submissions must not collide with the replayed id space.
	j, _, err := srv.submit([]scenario.Spec{testSpec("resume-c")}, "")
	if err != nil {
		t.Fatal(err)
	}
	if j.id == "j7" || jobNumT(t, j.id) <= 7 {
		t.Fatalf("post-replay id %s collides with replayed j7", j.id)
	}
}

func jobNumT(t *testing.T, id string) int64 {
	t.Helper()
	n, ok := jobNum(id)
	if !ok {
		t.Fatalf("malformed job id %q", id)
	}
	return n
}

// TestIdempotencyKeyAcrossRestart: the same Idempotency-Key returns the
// same job before and after a restart, counted as a replay.
func TestIdempotencyKeyAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	srv, err := New(sharedDB(t), Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	specs := []scenario.Spec{testSpec("idem")}
	j1, replayed, err := srv.submit(specs, "idem-key")
	if err != nil || replayed {
		t.Fatalf("first submit: %v replayed=%v", err, replayed)
	}
	j2, replayed, err := srv.submit(specs, "idem-key")
	if err != nil || !replayed || j2.id != j1.id {
		t.Fatalf("same-process dedupe failed: %v replayed=%v id=%s want %s", err, replayed, j2.id, j1.id)
	}
	waitJobDone(t, srv, j1.id)
	srv.Close()

	srv2, err := New(sharedDB(t), Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	j3, replayed, err := srv2.submit(specs, "idem-key")
	if err != nil || !replayed || j3.id != j1.id {
		t.Fatalf("cross-restart dedupe failed: %v replayed=%v id=%s want %s", err, replayed, j3.id, j1.id)
	}
}

// TestIdempotencyOverHTTP pins the wire contract: the header, the
// replay marker, and the key echoed in the status.
func TestIdempotencyOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"specs":[` + specJSON(t, testSpec("http-idem")) + `]}`

	submit := func() (*http.Response, JobStatus) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "wire-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if resp.StatusCode == http.StatusAccepted {
			decodeBody(t, resp, &st)
		}
		return resp, st
	}
	r1, st1 := submit()
	if r1.StatusCode != http.StatusAccepted || st1.Key != "wire-key" {
		t.Fatalf("first submit: %d %+v", r1.StatusCode, st1)
	}
	if r1.Header.Get("Idempotency-Replayed") != "" {
		t.Fatal("fresh submit marked as replayed")
	}
	r2, st2 := submit()
	if r2.StatusCode != http.StatusAccepted || st2.ID != st1.ID {
		t.Fatalf("retried submit: %d id %s, want %s", r2.StatusCode, st2.ID, st1.ID)
	}
	if r2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("deduplicated submit not marked as replayed")
	}
}

// TestRejectReasons: every rejection class carries its machine-readable
// reason in the envelope, and transient ones a Retry-After.
func TestRejectReasons(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	// Permanent: batch larger than the queue can ever hold.
	specs := []scenario.Spec{testSpec("r-a"), testSpec("r-b"), testSpec("r-c")}
	code, raw := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Specs: specs}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, `"reason":"batch_too_large"`) {
		t.Fatalf("oversized batch: %d %s", code, raw)
	}

	// Transient: queue occupied right now.
	srv.mu.Lock()
	srv.queued = 2
	srv.mu.Unlock()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"specs":[`+specJSON(t, testSpec("r-d"))+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw = readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(raw, `"reason":"queue_full"`) {
		t.Fatalf("full queue: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	srv.mu.Lock()
	srv.queued = 0
	srv.mu.Unlock()

	// Transient: draining.
	srv.mu.Lock()
	srv.closed = true
	srv.mu.Unlock()
	code, raw = postJSON(t, ts.URL+"/v1/jobs",
		JobRequest{Specs: []scenario.Spec{testSpec("r-e")}}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(raw, `"reason":"shutting_down"`) {
		t.Fatalf("draining: %d %s", code, raw)
	}
	srv.mu.Lock()
	srv.closed = false
	srv.mu.Unlock()
}

// TestJournalErrorRejectsSubmit: a failed journal append must refuse
// the submission (500, journal_error) rather than acknowledge a job
// that would vanish on restart.
func TestJournalErrorRejectsSubmit(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	srv, ts := newTestServer(t, Options{Workers: 1, JournalPath: path})

	if err := faultinject.Enable("jobstore.append", "error*1"); err != nil {
		t.Fatal(err)
	}
	code, raw := postJSON(t, ts.URL+"/v1/jobs",
		JobRequest{Specs: []scenario.Spec{testSpec("jerr")}}, nil)
	if code != http.StatusInternalServerError || !strings.Contains(raw, `"reason":"journal_error"`) {
		t.Fatalf("journal failure: %d %s", code, raw)
	}
	if srv.metrics.journalErrors.Load() == 0 {
		t.Fatal("journal_errors_total not counted")
	}
	// The rejection must not leak queue capacity or a half-registered job.
	var st JobStatus
	code, raw = postJSON(t, ts.URL+"/v1/jobs",
		JobRequest{Specs: []scenario.Spec{testSpec("jerr-2")}}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit after journal failure: %d %s", code, raw)
	}
	waitJobDone(t, srv, st.ID)
}

// TestRateLimit: a client hammering past its bucket gets 429 with
// Retry-After and the rate_limited reason; /healthz stays unlimited;
// the shed counter appears in /metrics.
func TestRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RatePerSec: 0.001, RateBurst: 2})

	ok := 0
	var limited *http.Response
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/savings", "application/json",
			strings.NewReader(`{"apps":["mcf"],"rm":"RM1"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
			break
		}
		readBody(t, resp)
		ok++
	}
	if limited == nil {
		t.Fatalf("no request limited after burst of 2 (%d passed)", ok)
	}
	raw := readBody(t, limited)
	if !strings.Contains(raw, `"reason":"rate_limited"`) {
		t.Fatalf("429 body: %s", raw)
	}
	if limited.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Health is exempt so orchestrators can always probe.
	var h Health
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz limited: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !strings.Contains(body, "qosrmd_requests_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", body)
	}
}

// TestHealthDegradedNearCapacity: /healthz flips to degraded at 90%
// queue occupancy and reports the occupancy numbers it derives from.
func TestHealthDegradedNearCapacity(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 10})
	var h Health
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != HealthOK {
		t.Fatalf("idle health %d %+v", code, h)
	}
	if h.QueueDepth != 10 || h.Journal {
		t.Fatalf("health fields %+v", h)
	}
	srv.mu.Lock()
	srv.queued = 9
	srv.mu.Unlock()
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != HealthDegraded {
		t.Fatalf("near-capacity health %d %+v", code, h)
	}
	if h.Queued != 9 {
		t.Fatalf("health queued %d, want 9", h.Queued)
	}
	srv.mu.Lock()
	srv.queued = 0
	srv.mu.Unlock()
}

// TestWorkerRetriesTransientFailure: an injected scenario error is
// retried and the job still completes cleanly; the retry counter moves.
func TestWorkerRetriesTransientFailure(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	srv, _ := newTestServer(t, Options{Workers: 1, JobRetries: 2})
	if err := faultinject.Enable("server.worker", "error*2"); err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.submit([]scenario.Spec{testSpec("retry")}, "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, srv, j.id)
	if st.State != JobDone || st.Error != "" {
		t.Fatalf("job did not recover from injected errors: %+v", st)
	}
	if got := srv.metrics.specsRetried.Load(); got != 2 {
		t.Fatalf("scenarios_retried_total %d, want 2", got)
	}
	// Retried pickups are the same unit of work: started counts the
	// scenario once, not once per attempt.
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	if started != 1 {
		t.Fatalf("job.started %d after 2 retries, want 1", started)
	}
}

// TestWorkerPanicRecovered: a panicking scenario neither kills the pool
// nor the job — it is retried (the panic counter moves) and, if the
// fault persists past the retry budget, recorded as the job's error.
func TestWorkerPanicRecovered(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	srv, _ := newTestServer(t, Options{Workers: 1, JobRetries: 1})
	if err := faultinject.Enable("server.worker", "panic*2"); err != nil {
		t.Fatal(err)
	}
	j, _, err := srv.submit([]scenario.Spec{testSpec("panic")}, "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, srv, j.id)
	if st.State != JobFailed || !strings.Contains(st.Error, "panic") {
		t.Fatalf("persistent panic not surfaced as job error: %+v", st)
	}
	if got := srv.metrics.workerPanics.Load(); got != 2 {
		t.Fatalf("worker_panics_total %d, want 2", got)
	}
	// The pool survived: the next job runs normally.
	j2, _, err := srv.submit([]scenario.Spec{testSpec("after-panic")}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJobDone(t, srv, j2.id); st.State != JobDone {
		t.Fatalf("pool dead after panic: %+v", st)
	}
}

// TestJournalCompactionOnTTLExpiry drives the GC with a fake clock:
// expiring a finished job journals the expiry and compacts the log, so
// a reboot neither serves nor re-runs the expired job — and a job
// finished after the sweep survives the compaction.
func TestJournalCompactionOnTTLExpiry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	srv, _ := newTestServer(t, Options{Workers: 1, JournalPath: path, JobTTL: time.Hour, clock: clock.now})

	j1, _, err := srv.submit([]scenario.Spec{testSpec("gc-old")}, "gc-key")
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, srv, j1.id)
	grown := srv.journal.Size()

	// Age the first job past its TTL, then finish a second one young.
	clock.advance(2 * time.Hour)
	j2, _, err := srv.submit([]scenario.Spec{testSpec("gc-young")}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, srv, j2.id)

	if n := srv.gcFinishedJobs(clock.now()); n != 1 {
		t.Fatalf("expired %d jobs, want 1", n)
	}
	if srv.metrics.journalCompacts.Load() != 1 {
		t.Fatal("expiry did not compact the journal")
	}
	if srv.journal.Size() >= grown {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", grown, srv.journal.Size())
	}
	// The key died with its job: reusing it starts a fresh job.
	j3, replayed, err := srv.submit([]scenario.Spec{testSpec("gc-rekey")}, "gc-key")
	if err != nil || replayed || j3.id == j1.id {
		t.Fatalf("expired key still deduplicates: %v replayed=%v id=%s", err, replayed, j3.id)
	}
	waitJobDone(t, srv, j3.id)
	srv.Close()

	// Reboot: the expired job is gone, the survivors are served.
	srv2, err := New(sharedDB(t), Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.jobByID(j1.id) != nil {
		t.Fatalf("expired job %s resurrected by replay", j1.id)
	}
	for _, id := range []string{j2.id, j3.id} {
		j := srv2.jobByID(id)
		if j == nil || j.status().State != JobDone {
			t.Fatalf("job %s lost across compaction + restart", id)
		}
	}
}

// TestTTLExpiryBatchReplaysLiveSet: one GC pass expiring several jobs
// journals them as a single batch append, and a restart replays the log
// to exactly the live set the server held after the pass. Compaction is
// failed on purpose so the batch itself, not a rewritten log, is what
// the restart replays.
func TestTTLExpiryBatchReplaysLiveSet(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	srv, _ := newTestServer(t, Options{Workers: 1, JournalPath: path, JobTTL: time.Hour, clock: clock.now})

	const old = 4
	for i := 0; i < old; i++ {
		j, _, err := srv.submit([]scenario.Spec{testSpec(fmt.Sprintf("batch-old-%d", i))}, fmt.Sprintf("batch-key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		waitJobDone(t, srv, j.id)
	}
	clock.advance(2 * time.Hour)
	young, _, err := srv.submit([]scenario.Spec{testSpec("batch-young")}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, srv, young.id)

	if err := faultinject.Enable("jobstore.compact", "error*1"); err != nil {
		t.Fatal(err)
	}
	before := srv.journal.Records()
	if n := srv.gcFinishedJobs(clock.now()); n != old {
		t.Fatalf("expired %d jobs, want %d", n, old)
	}
	if got := srv.journal.Records(); got != before+old {
		t.Fatalf("journal holds %d records after the pass, want %d (+%d expiries)", got, before+old, old)
	}
	if srv.metrics.journalCompacts.Load() != 0 {
		t.Fatal("compaction ran despite the armed failpoint")
	}
	live := func(s *Server) []string {
		s.mu.Lock()
		defer s.mu.Unlock()
		var ids []string
		for id := range s.jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids
	}
	want := live(srv)
	if !reflect.DeepEqual(want, []string{young.id}) {
		t.Fatalf("live set after the pass %v, want [%s]", want, young.id)
	}
	srv.Close()

	srv2, err := New(sharedDB(t), Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := live(srv2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart replayed live set %v, want %v", got, want)
	}
}

// specJSON marshals one spec for hand-built request bodies.
func specJSON(t *testing.T, s scenario.Spec) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
