package simsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/workload"
)

// smallSpec is a job small enough for unit tests but large enough to
// cross several telemetry sample boundaries. Arrivals are paced at a
// rate the base SSD sustains (50 µs mean); storms beyond that rate are
// exercised separately via Options.MaxPending (see TestMaxPendingJob).
func smallSpec(ops int, seed int64) JobSpec {
	return JobSpec{
		Profile:  "ssd",
		Workload: "synthetic",
		Params: workload.GenParams{
			Ops:                ops,
			CapacityBytes:      4 << 20,
			ReadFrac:           0.5,
			MeanInterarrivalUs: 50,
			Seed:               seed,
		},
	}
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) JobView {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d: %s", resp.StatusCode, b)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitJob(t *testing.T, srv *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /jobs/%s?wait=1: %d: %s", id, resp.StatusCode, b)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestEndToEnd is the acceptance path: submit → poll → stream → verify
// the final snapshot, all over HTTP.
func TestEndToEnd(t *testing.T) {
	m := New(Options{Workers: 2, SampleEvery: 1000})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	const ops = 100_000
	submitted := postJob(t, srv, smallSpec(ops, 1))
	if submitted.ID == "" || submitted.Cached {
		t.Fatalf("bad submit view: %+v", submitted)
	}

	view := waitJob(t, srv, submitted.ID)
	if view.Status != StatusDone {
		t.Fatalf("status %s (error %q), want done", view.Status, view.Error)
	}
	var res Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Workload.Ops != ops {
		t.Fatalf("workload drove %d ops, want %d", res.Workload.Ops, ops)
	}
	if res.Snapshot.Completed != ops {
		t.Fatalf("snapshot completed %d, want %d", res.Snapshot.Completed, ops)
	}
	if res.Snapshot.P99ReadMs < res.Snapshot.P50ReadMs || res.Snapshot.P50ReadMs <= 0 {
		t.Fatalf("implausible read percentiles: %+v", res.Snapshot)
	}
	if res.SimulatedSeconds <= 0 || res.WriteMBps <= 0 {
		t.Fatalf("implausible rates: sim %vs write %v MB/s", res.SimulatedSeconds, res.WriteMBps)
	}

	// Stream after completion: the retained telemetry replays in full.
	resp, err := http.Get(srv.URL + "/jobs/" + submitted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var samples []Sample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var s Sample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("stream yielded %d samples for a %d-op job, want >= 2", len(samples), ops)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Ops < samples[i-1].Ops || samples[i].Snapshot.Completed < samples[i-1].Snapshot.Completed {
			t.Fatalf("samples regressed: %+v then %+v", samples[i-1], samples[i])
		}
	}
	if last := samples[len(samples)-1]; last.Ops != ops {
		t.Fatalf("final sample at %d ops, want %d", last.Ops, ops)
	}
}

// TestCacheHit pins the content-addressed cache contract: the second
// identical submission is served from memory with a byte-identical
// result payload.
func TestCacheHit(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	spec := smallSpec(20_000, 7)
	first := postJob(t, srv, spec)
	firstDone := waitJob(t, srv, first.ID)
	if firstDone.Status != StatusDone || firstDone.Cached {
		t.Fatalf("first run: %+v", firstDone)
	}

	second := postJob(t, srv, spec)
	if !second.Cached {
		t.Fatalf("second identical submission not served from cache: %+v", second)
	}
	if second.Status != StatusDone {
		t.Fatalf("cached job status %s, want done", second.Status)
	}
	if !bytes.Equal(firstDone.Result, second.Result) {
		t.Fatalf("cached payload differs:\n%s\nvs\n%s", firstDone.Result, second.Result)
	}

	// A different seed is a different content address.
	third := postJob(t, srv, smallSpec(20_000, 8))
	if third.Cached {
		t.Fatal("distinct spec hit the cache")
	}
	if waitJob(t, srv, third.ID).Status != StatusDone {
		t.Fatal("third job failed")
	}

	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 {
		t.Fatalf("cache hits %d, want 1 (stats %+v)", st.Cache.Hits, st)
	}
	if st.JobsSubmitted != 3 || st.JobsCompleted != 3 {
		t.Fatalf("job counters off: %+v", st)
	}
}

// TestCancel kills an in-flight job and checks it lands in failed with
// the cancellation cause, promptly.
func TestCancel(t *testing.T) {
	m := New(Options{Workers: 1, SampleEvery: 200})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Big enough that it cannot finish before the cancel lands.
	view := postJob(t, srv, smallSpec(5_000_000, 3))

	// Wait until it is demonstrably in flight: at least one sample.
	job, ok := m.Job(view.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v := job.View(); v.Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job produced no samples")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cancelResp map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&cancelResp); err != nil {
		t.Fatal(err)
	}
	if !cancelResp["cancelled"] {
		t.Fatalf("cancel refused: %+v", cancelResp)
	}

	done := waitJob(t, srv, view.ID)
	if done.Status != StatusFailed {
		t.Fatalf("cancelled job status %s, want failed", done.Status)
	}
	if !strings.Contains(done.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled job error %q, want %q", done.Error, context.Canceled)
	}
	if len(done.Result) != 0 {
		t.Fatal("cancelled job has a result")
	}
}

// TestStreamLiveTail subscribes before the job finishes and still sees
// the whole sample sequence.
func TestStreamLiveTail(t *testing.T) {
	m := New(Options{Workers: 1, SampleEvery: 500})
	defer m.Close()

	job, err := m.Submit(smallSpec(50_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var got []Sample
	if err := m.StreamSamples(ctx, job.ID, func(s Sample) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 50k ops / 500 per sample + the final one.
	if len(got) != 101 {
		t.Fatalf("tailed %d samples, want 101", len(got))
	}
}

// TestStreamTerminatesOnEviction holds a stream tail open on a finished
// job (the delivery callback blocks, as a slow client would) while new
// submissions evict that job under RetainJobs. The tail must terminate
// promptly — delivering every retained sample and then returning —
// instead of outliving the handle indefinitely.
func TestStreamTerminatesOnEviction(t *testing.T) {
	m := New(Options{Workers: 1, RetainJobs: 1, SampleEvery: 500})
	defer m.Close()

	job, err := m.Submit(smallSpec(2_000, 201))
	if err != nil {
		t.Fatal(err)
	}
	view, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	first := make(chan struct{})
	streamErr := make(chan error, 1)
	delivered := 0
	go func() {
		streamErr <- m.StreamSamples(context.Background(), job.ID, func(Sample) error {
			if delivered == 0 {
				close(first)
				<-gate // hold the tail open mid-delivery
			}
			delivered++
			return nil
		})
	}()
	<-first

	// A new submission pushes the table past RetainJobs and evicts the
	// finished job while its tail is still attached.
	next, err := m.Submit(smallSpec(2_000, 202))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Job(job.ID); ok {
		t.Fatal("job survived eviction; the test is not exercising the tail")
	}
	close(gate)

	select {
	case err := <-streamErr:
		// Eviction never discards retained telemetry: a tail on a
		// finished job delivers everything and completes cleanly; only
		// a tail that would otherwise wait forever errors out.
		if err != nil && !errors.Is(err, ErrJobEvicted) {
			t.Fatalf("evicted tail returned %v, want nil or ErrJobEvicted", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream tail leaked past its job's eviction")
	}
	if delivered != view.Samples {
		t.Fatalf("tail delivered %d of %d retained samples across the eviction", delivered, view.Samples)
	}
	if _, err := m.Wait(context.Background(), next.ID); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEvictionReleasesWaiter pins the wake-up half of the
// eviction contract at the lowest level: a tail blocked in the sample
// wait loop must be released when the job is marked evicted, not sleep
// until a broadcast that will never come. The job is driven through the
// internal states directly so the tail is genuinely parked on the cond
// when the eviction lands.
func TestStreamEvictionReleasesWaiter(t *testing.T) {
	m := New(Options{Workers: 1, RetainJobs: 1})
	defer m.Close()
	job := &Job{ID: "job-x", status: StatusRunning}
	job.cond = sync.NewCond(&job.mu)
	// A second live job keeps the table over RetainJobs so evictLocked
	// has an excess to shed.
	other := &Job{ID: "job-y", status: StatusRunning}
	other.cond = sync.NewCond(&other.mu)
	m.mu.Lock()
	m.jobs[job.ID] = job
	m.jobs[other.ID] = other
	m.order = append(m.order, job.ID, other.ID)
	m.mu.Unlock()

	streamErr := make(chan error, 1)
	go func() {
		streamErr <- m.StreamSamples(context.Background(), job.ID, func(Sample) error { return nil })
	}()
	// Let the tail reach the wait loop (no samples, job not terminal).
	time.Sleep(20 * time.Millisecond)

	job.mu.Lock()
	job.status = StatusFailed // terminal, so eviction may take it
	job.mu.Unlock()
	m.mu.Lock()
	m.evictLocked()
	m.mu.Unlock()
	if _, ok := m.Job(job.ID); ok {
		t.Fatal("job not evicted")
	}

	select {
	case err := <-streamErr:
		// Terminal + zero samples completes cleanly; the point is that
		// the waiter woke at all.
		if err != nil && !errors.Is(err, ErrJobEvicted) {
			t.Fatalf("released tail returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tail still parked on the cond after eviction")
	}
}

// TestCancelQueuedJobFailsImmediately pins the backlog-cancellation
// path: deleting a job that is still waiting for a worker fails it (and
// releases its waiters and stream tails) right away, not whenever a
// worker finally picks up the dead context — behind a long-running job
// that could be arbitrarily far in the future.
func TestCancelQueuedJobFailsImmediately(t *testing.T) {
	m := New(Options{Workers: 1, SampleEvery: 200})
	defer m.Close()

	// Occupy the only worker with a job too big to finish during the test.
	big, err := m.Submit(smallSpec(5_000_000, 210))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v := big.View(); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("big job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	queued, err := m.Submit(smallSpec(2_000, 211))
	if err != nil {
		t.Fatal(err)
	}
	if v := queued.View(); v.Status != StatusQueued {
		t.Fatalf("second job is %s with one busy worker, want queued", v.Status)
	}

	tailErr := make(chan error, 1)
	go func() {
		tailErr <- m.StreamSamples(context.Background(), queued.ID, func(Sample) error { return nil })
	}()

	cancelled, err := m.Cancel(queued.ID)
	if err != nil || !cancelled {
		t.Fatalf("Cancel(queued) = %v, %v; want true, nil", cancelled, err)
	}
	if v := queued.View(); v.Status != StatusFailed {
		t.Fatalf("cancelled queued job is %s, want failed immediately", v.Status)
	}
	select {
	case err := <-tailErr:
		if err != nil {
			t.Fatalf("tail of cancelled queued job returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tail still blocked: cancellation did not release it")
	}

	// The worker that eventually drains the backlog must not resurrect
	// the failed job or double-count it.
	if _, err := m.Cancel(big.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), big.ID); err != nil {
		t.Fatal(err)
	}
	if v := queued.View(); v.Status != StatusFailed {
		t.Fatalf("queued job resurrected to %s after worker drain", v.Status)
	}
	if got := m.Stats().JobsFailed; got != 2 {
		t.Fatalf("failed counter %d, want 2 (one cancel each)", got)
	}
}

// TestReadOnlyJobJSON submits a pure-read workload: the write-side
// histograms stay empty and the result payload must still marshal and
// report zeroed write latency — the guard against non-finite JSON.
func TestReadOnlyJobJSON(t *testing.T) {
	m := New(Options{Workers: 1, SampleEvery: 500})
	defer m.Close()

	spec := smallSpec(2_000, 220)
	spec.Params.ReadFrac = 1.0
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("read-only job %s (error %q), want done", view.Status, view.Error)
	}
	var res Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatalf("read-only payload does not parse: %v", err)
	}
	if res.Workload.Writes != 0 || res.Snapshot.BytesWritten != 0 {
		t.Fatalf("read-only job wrote: %+v", res.Workload)
	}
	s := res.Snapshot
	if s.MeanWriteMs != 0 || s.P50WriteMs != 0 || s.P95WriteMs != 0 || s.P99WriteMs != 0 {
		t.Fatalf("write latency nonzero on read-only job: %+v", s)
	}
	if s.MeanReadMs <= 0 || s.P99ReadMs <= 0 {
		t.Fatalf("read latency missing: %+v", s)
	}
}

// TestJobRetention pins the job-table bound: terminal jobs past
// RetainJobs are evicted oldest-first, live ones survive.
func TestJobRetention(t *testing.T) {
	m := New(Options{Workers: 1, RetainJobs: 2})
	defer m.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct seeds so no submission is served from the cache.
		job, err := m.Submit(smallSpec(2_000, int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), job.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	if _, ok := m.Job(ids[0]); ok {
		t.Fatalf("oldest job %s survived past RetainJobs=2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := m.Job(id); !ok {
			t.Fatalf("recent job %s evicted", id)
		}
	}

	m.mu.Lock()
	n, o := len(m.jobs), len(m.order)
	m.mu.Unlock()
	if n != 2 || o != 2 {
		t.Fatalf("job table %d entries, order %d, want 2", n, o)
	}
}

// TestSubmitValidation rejects unknown names at submit time.
func TestSubmitValidation(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	if _, err := m.Submit(JobSpec{Profile: "nope", Workload: "synthetic"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	spec := smallSpec(10, 1)
	spec.Workload = "nope"
	if _, err := m.Submit(spec); err == nil {
		t.Fatal("unknown workload accepted")
	}
	spec = smallSpec(10, 1)
	spec.Options.Scheme = "quantum"
	if _, err := m.Submit(spec); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	spec = smallSpec(10, 1)
	spec.Options.MaxPending = -1
	if _, err := m.Submit(spec); err == nil {
		t.Fatal("negative max_pending accepted")
	}
}

// TestMaxPendingJob runs an open-loop arrival storm — interarrival far
// below what the device sustains — under the max_pending admission
// bound: the job must complete every op (paced, not shed) and stay
// deterministic, which is exactly the regime that used to be flagged as
// a caveat ("pace arrivals in big jobs") before admission control.
func TestMaxPendingJob(t *testing.T) {
	m := New(Options{Workers: 1, SampleEvery: 5000})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	const ops = 20_000
	spec := smallSpec(ops, 3)
	spec.Params.MeanInterarrivalUs = 1 // storm: ~50x the sustainable rate
	spec.Options.MaxPending = 32

	done := waitJob(t, srv, postJob(t, srv, spec).ID)
	if done.Status != StatusDone {
		t.Fatalf("status %s (error %q), want done", done.Status, done.Error)
	}
	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Completed != ops {
		t.Fatalf("completed %d of %d: the bound shed work", res.Snapshot.Completed, ops)
	}
	// The spec (including the bound) is the cache identity: the same
	// storm resubmitted is served from cache byte-identically.
	again := postJob(t, srv, spec)
	if !again.Cached {
		t.Fatal("identical bounded job missed the cache")
	}
}

// TestSpecKey pins that the content address tracks spec content.
func TestSpecKey(t *testing.T) {
	a, b := smallSpec(100, 1), smallSpec(100, 1)
	if a.Key() != b.Key() {
		t.Fatal("equal specs hash differently")
	}
	b.Params.Seed = 2
	if a.Key() == b.Key() {
		t.Fatal("different seeds hash equally")
	}
}

// TestCacheLRU pins the eviction bound.
func TestCacheLRU(t *testing.T) {
	c := newCache(2)
	id1, id2, id3 := []byte("id-1"), []byte("id-2"), []byte("id-3")
	c.put(1, id1, []byte("a"))
	c.put(2, id2, []byte("b"))
	if _, ok := c.get(1, id1); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("missing entry 1")
	}
	c.put(3, id3, []byte("c"))
	if _, ok := c.get(2, id2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := c.get(1, id1); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	st := c.stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestCacheKeyCollision forces two identities onto one 64-bit key: the
// cache must never serve one identity's payload for the other — a
// collision is a counted miss — and a colliding store replaces the
// incumbent rather than poisoning it.
func TestCacheKeyCollision(t *testing.T) {
	c := newCache(4)
	specA, specB := []byte(`{"spec":"a"}`), []byte(`{"spec":"b"}`)
	const key = 42 // same key for both: a forced FNV collision
	c.put(key, specA, []byte("payload-a"))
	if _, ok := c.get(key, specB); ok {
		t.Fatal("colliding key served another identity's payload")
	}
	if st := c.stats(); st.KeyCollisions != 1 || st.Hits != 0 {
		t.Fatalf("after colliding get: stats %+v, want 1 collision, 0 hits", st)
	}
	if got, ok := c.get(key, specA); !ok || string(got) != "payload-a" {
		t.Fatalf("original identity no longer hits: %q %v", got, ok)
	}
	// A colliding put replaces the entry; each spec then sees its own
	// payload or a miss, never the other's bytes.
	c.put(key, specB, []byte("payload-b"))
	if st := c.stats(); st.KeyCollisions != 2 {
		t.Fatalf("colliding put not counted: stats %+v", st)
	}
	if _, ok := c.get(key, specA); ok {
		t.Fatal("replaced identity still hits")
	}
	if got, ok := c.get(key, specB); !ok || string(got) != "payload-b" {
		t.Fatalf("new identity misses: %q %v", got, ok)
	}
}

// TestDiscoveryEndpoints spot-checks /profiles, /workloads,
// /experiments, and /healthz.
func TestDiscoveryEndpoints(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}

	var profiles []profileInfo
	getJSON("/profiles", &profiles)
	if len(profiles) != len(core.ProfileNames()) {
		t.Fatalf("profiles: got %d, registry has %d", len(profiles), len(core.ProfileNames()))
	}

	var workloads []string
	getJSON("/workloads", &workloads)
	if fmt.Sprint(workloads) != fmt.Sprint(workload.Generators()) {
		t.Fatalf("workloads %v != generators %v", workloads, workload.Generators())
	}

	var exps []experimentInfo
	getJSON("/experiments", &exps)
	if len(exps) != len(experiments.Catalog()) {
		t.Fatalf("experiments: got %d, catalog has %d", len(exps), len(experiments.Catalog()))
	}

	var health map[string]string
	getJSON("/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}
}

// TestShardsCacheIdentity pins the contract for the shards option: it is
// accepted and ignored. A spec differing only in Options.Shards shares
// the content address and the cache entry, and a negative count is still
// refused with 400.
func TestShardsCacheIdentity(t *testing.T) {
	spec := smallSpec(20_000, 3)
	shardedSpec := spec
	shardedSpec.Options.Shards = 2
	if spec.Key() != shardedSpec.Key() {
		t.Fatal("specs differing only in shards must share a content address")
	}

	m := New(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	first := postJob(t, srv, shardedSpec)
	if done := waitJob(t, srv, first.ID); done.Status != StatusDone {
		t.Fatalf("shards=2 run: %+v", done)
	}
	second := postJob(t, srv, spec)
	if !second.Cached {
		t.Fatal("spec without shards missed the shards=2 run's cache entry")
	}

	negative := spec
	negative.Options.Shards = -1
	body, err := json.Marshal(negative)
	if err != nil {
		t.Fatal(err)
	}
	if code := postStatus(t, srv, "/jobs", string(body)); code != http.StatusBadRequest {
		t.Fatalf("negative shards: status %d, want 400", code)
	}
}

// TestJobTimestampsAndAggregates pins the lifecycle timestamps on
// JobView and the queue-wait / run-duration aggregates in Stats: a
// simulated job orders submitted <= started <= finished and feeds both
// aggregates; a cache hit finishes without ever starting and feeds
// neither.
func TestJobTimestampsAndAggregates(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()

	job, err := m.Submit(smallSpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	view, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("job: %+v", view)
	}
	if view.SubmittedAt.IsZero() || view.StartedAt.IsZero() || view.FinishedAt.IsZero() {
		t.Fatalf("missing timestamps: %+v", view)
	}
	if view.StartedAt.Before(view.SubmittedAt) || view.FinishedAt.Before(view.StartedAt) {
		t.Fatalf("timestamps out of order: %+v", view)
	}
	if view.QueueWaitMs < 0 || view.RunMs <= 0 {
		t.Fatalf("derived durations: wait=%v run=%v", view.QueueWaitMs, view.RunMs)
	}
	s := m.Stats()
	if s.QueueWait.N != 1 || s.Run.N != 1 {
		t.Fatalf("aggregates after one run: %+v", s)
	}
	if s.Run.MeanMs <= 0 || s.Run.MinMs > s.Run.MaxMs {
		t.Fatalf("run aggregate: %+v", s.Run)
	}

	// The cache hit: finished but never started, aggregates untouched.
	hit, err := m.Submit(smallSpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	hv, err := hit.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hv.Cached || hv.FinishedAt.IsZero() || !hv.StartedAt.IsZero() || hv.RunMs != 0 {
		t.Fatalf("cache-hit view: %+v", hv)
	}
	if s := m.Stats(); s.QueueWait.N != 1 || s.Run.N != 1 {
		t.Fatalf("cache hit moved the aggregates: %+v", s)
	}
}

// postStatus POSTs body to path and returns the response status.
func postStatus(t *testing.T, srv *httptest.Server, path, body string) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// Request bodies are capped at MaxBodyBytes: a valid body padded past the
// cap with leading whitespace is refused with 413, and the same body
// unpadded is still accepted. A deeply nested body under the cap is a
// 400, not a crash.
func TestRequestBodyCap(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	spec, err := json.Marshal(smallSpec(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", MaxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/jobs", string(spec)},
		{"/experiments/schemes", `{"seed": 1}`},
	} {
		if code := postStatus(t, srv, tc.path, pad+tc.body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an oversized body: %d, want 413", tc.path, code)
		}
		if code := postStatus(t, srv, tc.path, tc.body); code/100 != 2 {
			t.Errorf("POST %s: %d, want 2xx", tc.path, code)
		}
	}
	nested := `{"params": ` + strings.Repeat("[", MaxBodyBytes/2)
	if code := postStatus(t, srv, "/jobs", nested); code != http.StatusBadRequest {
		t.Errorf("POST /jobs with a deeply nested body: %d, want 400", code)
	}
}
