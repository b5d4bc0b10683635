package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ossd/internal/simsvc"
)

// newService builds a job manager + campaign manager pair for tests.
func newService(t *testing.T, workers int, copts Options) (*simsvc.Manager, *Manager) {
	t.Helper()
	jobs := simsvc.New(simsvc.Options{Workers: workers, SampleEvery: 1000})
	t.Cleanup(jobs.Close)
	return jobs, New(jobs, copts)
}

// sweep is the canonical small test campaign: seeds × schedulers.
func sweep(ops int, seeds ...string) Spec {
	return Spec{
		Template: template(ops),
		Axes: []Axis{
			{Name: "params.seed", Values: vals(seeds...)},
			{Name: "options.scheduler", Values: vals(`"fcfs"`, `"swtf"`)},
		},
	}
}

// waitDone submits and waits for the campaign, asserting full success.
func waitDone(t *testing.T, m *Manager, spec Spec) (*Campaign, Progress) {
	t.Helper()
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	p, err := m.Wait(ctx, c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "done" || p.Failed != 0 || p.Done != p.Total {
		t.Fatalf("campaign did not fully succeed: %+v", p)
	}
	return c, p
}

// TestCampaignByteIdentity is the acceptance pin: a campaign's per-cell
// results are byte-identical to individually submitted jobs with the
// same specs, regardless of worker count — the campaign ran on 4
// workers, the individual jobs run on 1.
func TestCampaignByteIdentity(t *testing.T) {
	_, m := newService(t, 4, Options{})
	spec := sweep(20000, "1", "2")
	c, p := waitDone(t, m, spec)
	if p.Total != 4 {
		t.Fatalf("total %d, want 4", p.Total)
	}

	// Stream delivers every cell in deterministic cell order.
	var streamed []CellResult
	err := m.StreamResults(context.Background(), c.ID, func(r CellResult) error {
		streamed = append(streamed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 4 {
		t.Fatalf("streamed %d cells", len(streamed))
	}
	cells, err := Expand(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	single := simsvc.New(simsvc.Options{Workers: 1})
	defer single.Close()
	for i, r := range streamed {
		if r.Index != i {
			t.Fatalf("stream out of order: got index %d at position %d", r.Index, i)
		}
		if r.Status != simsvc.StatusDone || len(r.Result) == 0 {
			t.Fatalf("cell %d: %+v", i, r)
		}
		job, err := single.Submit(cells[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		view, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if view.Status != simsvc.StatusDone {
			t.Fatalf("individual job %d failed: %s", i, view.Error)
		}
		if !bytes.Equal(view.Result, r.Result) {
			t.Fatalf("cell %d payload differs from individual job:\ncampaign: %s\njob: %s",
				i, r.Result, view.Result)
		}
	}
}

// TestCampaignIncrementalRerun pins the design's whole point: re-running
// a campaign after adding one value to one axis only simulates the new
// cells. Pinned via the job manager's cache-hit / jobs-submitted /
// simulations-run counters.
func TestCampaignIncrementalRerun(t *testing.T) {
	jobs, m := newService(t, 2, Options{})
	waitDone(t, m, sweep(20000, "1", "2")) // 4 cells, all simulated

	s0 := jobs.Stats()
	if s0.JobsSubmitted != 4 || s0.Cache.Hits != 0 || s0.Run.N != 4 {
		t.Fatalf("first run: %+v", s0)
	}

	// One more value on the seed axis: 6 cells, of which 4 are the old
	// grid and must be served from the cache.
	_, p := waitDone(t, m, sweep(20000, "1", "2", "3"))
	if p.CacheHits != 4 {
		t.Fatalf("second run cache hits = %d, want 4", p.CacheHits)
	}
	s1 := jobs.Stats()
	if s1.JobsSubmitted != 10 {
		t.Fatalf("jobs submitted = %d, want 10", s1.JobsSubmitted)
	}
	if s1.Cache.Hits != 4 {
		t.Fatalf("cache hits = %d, want 4", s1.Cache.Hits)
	}
	if s1.Run.N != 6 {
		t.Fatalf("simulations run = %d, want 6 (only the new cells)", s1.Run.N)
	}
}

// TestCampaignShardsDedup: a campaign sweeping options.shards dedups to
// ONE simulation — shards are accepted, ignored and excluded from the
// cache key, so the shard-differing cells must cache-hit — and every cell
// returns a byte-identical payload.
func TestCampaignShardsDedup(t *testing.T) {
	jobs, m := newService(t, 4, Options{})
	spec := Spec{
		Template: template(20000),
		Axes:     []Axis{{Name: "options.shards", Values: vals("1", "2", "4")}},
	}
	c, p := waitDone(t, m, spec)
	if p.Total != 3 || p.CacheHits != 2 {
		t.Fatalf("progress %+v, want 3 cells with 2 cache hits", p)
	}
	s := jobs.Stats()
	if s.Run.N != 1 {
		t.Fatalf("simulations run = %d, want 1", s.Run.N)
	}
	results := c.Results()
	if len(results) != 3 {
		t.Fatalf("results: %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[i].Result, results[0].Result) {
			t.Fatalf("cell %d payload differs from cell 0", i)
		}
		if !results[i].Cached {
			t.Fatalf("cell %d should be a cache hit", i)
		}
	}
}

// TestCampaignStatsInStatsz: campaign counters surface through the job
// service's /statsz hook.
func TestCampaignStatsInStatsz(t *testing.T) {
	jobs, m := newService(t, 2, Options{})
	waitDone(t, m, sweep(5000, "1"))
	s := jobs.Stats()
	cs, ok := s.Campaigns.(Stats)
	if !ok {
		t.Fatalf("statsz campaigns: %T", s.Campaigns)
	}
	if cs.Submitted != 1 || cs.Completed != 1 || cs.CellsTotal != 2 || cs.CellsDone != 2 {
		t.Fatalf("campaign stats: %+v", cs)
	}
	if m.Stats() != cs {
		t.Fatalf("hook and direct stats differ")
	}
}

// TestCampaignCancel: DELETE stops the remainder — every cell settles,
// none are left queued, and the campaign reports cancelled.
func TestCampaignCancel(t *testing.T) {
	_, m := newService(t, 1, Options{MaxInFlight: 1})
	// Enough slow cells that cancellation lands mid-campaign.
	spec := Spec{
		Template: template(200000),
		Axes:     []Axis{{Name: "params.seed", Range: &Range{From: 1, To: 8}}},
	}
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p, err := m.Wait(ctx, c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "cancelled" {
		t.Fatalf("status %q, want cancelled", p.Status)
	}
	if p.Done+p.Failed != p.Total || p.Queued != 0 || p.Running != 0 {
		t.Fatalf("unsettled cells after cancel: %+v", p)
	}
	if p.Failed == 0 {
		t.Fatalf("cancellation failed no cells: %+v", p)
	}
	// Cancelling a terminal campaign is a no-op.
	if again, err := m.Cancel(c.ID); err != nil || again {
		t.Fatalf("second cancel: %v %v", again, err)
	}
}

// serveHTTP mounts the composed simd surface (jobs + campaigns).
func serveHTTP(t *testing.T, jobs *simsvc.Manager, m *Manager) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	m.Register(mux)
	mux.Handle("/", jobs.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// postCampaign POSTs a campaign spec and decodes its progress view.
func postCampaign(t *testing.T, srv *httptest.Server, spec Spec) Progress {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /campaigns: %d: %s", resp.StatusCode, b)
	}
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCampaignHTTP is the end-to-end HTTP path: POST a grid, block on
// ?wait=1, tail the NDJSON stream, render the table, re-POST and watch
// it complete from cache, then DELETE a fresh campaign.
func TestCampaignHTTP(t *testing.T) {
	jobs, m := newService(t, 2, Options{})
	srv := serveHTTP(t, jobs, m)

	p := postCampaign(t, srv, sweep(20000, "1", "2"))
	if p.Total != 4 || p.ID == "" {
		t.Fatalf("submit view: %+v", p)
	}

	resp, err := http.Get(srv.URL + "/campaigns/" + p.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.Status != "done" || p.Done != 4 {
		t.Fatalf("wait view: %+v", p)
	}

	// Stream: four NDJSON cells in deterministic order.
	sresp, err := http.Get(srv.URL + "/campaigns/" + p.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var n int
	for sc.Scan() {
		var cr CellResult
		if err := json.Unmarshal(sc.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Index != n || cr.Status != simsvc.StatusDone {
			t.Fatalf("stream line %d: %+v", n, cr)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("streamed %d lines", n)
	}

	// Table: defaults to the first two axes and write_mbps.
	tresp, err := http.Get(srv.URL + "/campaigns/" + p.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("table: %d: %s", tresp.StatusCode, table)
	}
	for _, want := range []string{"fcfs", "swtf", "1", "2", "write_mbps"} {
		if !strings.Contains(string(table), want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	// Unknown metric is a client error, not an empty grid.
	tresp, err = http.Get(srv.URL + "/campaigns/" + p.ID + "/table?metric=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus metric: %d", tresp.StatusCode)
	}

	// Re-POST of the identical grid completes entirely from cache.
	p2 := postCampaign(t, srv, sweep(20000, "1", "2"))
	resp, err = http.Get(srv.URL + "/campaigns/" + p2.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&p2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p2.Status != "done" || p2.CacheHits != 4 {
		t.Fatalf("re-POST should be fully cached: %+v", p2)
	}

	// DELETE cancels.
	p3 := postCampaign(t, srv, sweep(20000, "3", "4"))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/"+p3.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
}

// TestCampaignConcurrentPosts hammers POST /campaigns from several
// goroutines — the satellite's -race target: the feeder, watchers,
// stream tails, and progress polls all interleave across campaigns
// sharing one job manager and cache.
func TestCampaignConcurrentPosts(t *testing.T) {
	jobs, m := newService(t, 4, Options{})
	srv := serveHTTP(t, jobs, m)

	const posters = 4
	var wg sync.WaitGroup
	errs := make(chan error, posters)
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping grids: every poster shares seed "1" with the
			// others, so cache hits and simulations race deliberately.
			p := postCampaign(t, srv, sweep(5000, "1", fmt.Sprint(g+2)))
			resp, err := http.Get(srv.URL + "/campaigns/" + p.ID + "?wait=1")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				errs <- err
				return
			}
			if p.Status != "done" || p.Done != p.Total {
				errs <- fmt.Errorf("poster %d: %+v", g, p)
				return
			}
			// And the stream replays cleanly after completion.
			sresp, err := http.Get(srv.URL + "/campaigns/" + p.ID + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer sresp.Body.Close()
			n := 0
			sc := bufio.NewScanner(sresp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
			for sc.Scan() {
				n++
			}
			if n != p.Total {
				errs <- fmt.Errorf("poster %d streamed %d/%d", g, n, p.Total)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCampaignRetention: terminal campaigns are evicted oldest-first
// once the table exceeds its bound, and an attached stream tail
// terminates with ErrCampaignEvicted instead of hanging.
func TestCampaignRetention(t *testing.T) {
	_, m := newService(t, 2, Options{Retain: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		c, _ := waitDone(t, m, Spec{Template: template(5000 + i)})
		ids = append(ids, c.ID)
	}
	// Submitting the third evicted the first (bound 2).
	if _, ok := m.Campaign(ids[0]); ok {
		t.Fatalf("campaign %s should be evicted", ids[0])
	}
	if _, ok := m.Campaign(ids[2]); !ok {
		t.Fatalf("campaign %s should be retained", ids[2])
	}
	if got := m.Stats().Retained; got != 2 {
		t.Fatalf("retained %d, want 2", got)
	}
}

// TestCampaignETA: once a simulated cell completes mid-campaign, the
// progress view extrapolates a nonzero ETA for the remainder.
func TestCampaignETA(t *testing.T) {
	_, m := newService(t, 1, Options{MaxInFlight: 1})
	spec := Spec{
		Template: template(100000),
		Axes:     []Axis{{Name: "params.seed", Range: &Range{From: 1, To: 6}}},
	}
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Poll until at least one cell is done but the campaign is not.
	deadline := time.Now().Add(time.Minute)
	for {
		p := m.Progress(c)
		if p.Status == "done" {
			t.Skip("campaign finished before a mid-flight progress view; nothing to assert")
		}
		if p.Done > 0 {
			if p.ETASeconds <= 0 {
				t.Fatalf("done=%d but no ETA: %+v", p.Done, p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed within a minute")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := m.Wait(ctx, c.ID); err != nil {
		t.Fatal(err)
	}
}

// POST /campaigns caps its body at simsvc.MaxBodyBytes: a valid spec
// padded past the cap is refused with 413, and unpadded still accepted.
func TestCampaignBodyCap(t *testing.T) {
	jobs, m := newService(t, 1, Options{})
	srv := serveHTTP(t, jobs, m)
	spec, err := json.Marshal(sweep(2000, "1"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(strings.Repeat(" ", simsvc.MaxBodyBytes) + string(spec)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: %d, want 413", code)
	}
	if code := post(string(spec)); code != http.StatusAccepted {
		t.Errorf("spec: %d, want 202", code)
	}
}
