package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"ossd/internal/campaign"
	"ossd/internal/simsvc"
	"ossd/internal/workload"
)

// The service workload drives an in-process simd over loopback: two
// closed-loop HTTP clients submit small synthetic jobs over all five
// base profiles and wait for each to finish. A fixed share of jobs
// repeats a spec the other client also sends (cache hits and
// single-flight coalescing), and every tenth request is a small
// campaign whose cells include duplicates. It is the only workload where
// simsvc, campaign, the JSON/HTTP path and the four non-flash substrates
// do a measurable share of the work.
//
// The request pattern — which profile, which requests repeat, where the
// campaigns fall — is the same for every seed; the seed picks only the
// jobs' workload seeds. So seeds change what is simulated, not the mix.
const (
	svcClients = 2
	// svcRequests per client make a round of 1,008 single jobs and 112
	// campaigns: enough for a p99 of its own with ten samples beyond,
	// and 952 distinct specs, within the service's 1,024-entry cache.
	svcRequests = 560
	svcOps      = 2000
	// Request k of a client is a campaign when k%svcCycle is
	// svcCampaignSlot, and repeats the decade's shared spec when k%svcCycle
	// is one of svcHotSlots: 3 of every 9 jobs, each shared spec sent
	// six times per round (three times by each client).
	svcCycle        = 10
	svcCampaignSlot = 9
	svcMaxCells     = 4096 // the campaign manager's default guard
)

var (
	svcProfiles = []string{"ssd", "hdd", "mems", "raid", "osd"}
	svcHotSlots = map[int]bool{1: true, 4: true, 7: true}
)

// svcRequest is one client request: a job or a campaign.
type svcRequest struct {
	profile string
	job     *simsvc.JobSpec
	camp    *campaign.Spec
}

func svcJobSpec(profile string, seed int64) simsvc.JobSpec {
	return simsvc.JobSpec{
		Profile:  profile,
		Workload: "synthetic",
		Params: workload.GenParams{
			Ops:                svcOps,
			CapacityBytes:      16 << 20,
			ReadFrac:           0.5,
			MeanInterarrivalUs: 200,
			Seed:               seed,
		},
	}
}

func rawValues(vs ...int64) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(fmt.Sprint(v))
	}
	return out
}

// servicePlan makes each client's request sequence. Job seeds fall in
// disjoint ranges per client, shared spec and campaign, so the only
// repeated specs are the designed ones.
func servicePlan(seed int64) [svcClients][]svcRequest {
	base := seed * 10_000_000
	var plan [svcClients][]svcRequest
	for c := range plan {
		for k := 0; k < svcRequests; k++ {
			decade := k / svcCycle
			var r svcRequest
			switch slot := k % svcCycle; {
			case slot == svcCampaignSlot:
				// Two seeds by two shard counts: shards are excluded from
				// a spec's identity, so half the cells duplicate the other
				// half.
				r.profile = svcProfiles[(decade+c)%len(svcProfiles)]
				s := base + 8_000_000 + int64(c)*100_000 + int64(k)*10
				r.camp = &campaign.Spec{
					Template: svcJobSpec(r.profile, s),
					Axes: []campaign.Axis{
						{Name: "params.seed", Values: rawValues(s, s+1)},
						{Name: "options.shards", Values: rawValues(1, 2)},
					},
				}
			case svcHotSlots[slot]:
				r.profile = svcProfiles[decade%len(svcProfiles)]
				spec := svcJobSpec(r.profile, base+5_000_000+int64(decade))
				r.job = &spec
			default:
				r.profile = svcProfiles[(k+c)%len(svcProfiles)]
				spec := svcJobSpec(r.profile, base+int64(c)*1_000_000+int64(k))
				r.job = &spec
			}
			plan[c] = append(plan[c], r)
		}
	}
	return plan
}

// planShape counts what a plan submits: jobs (campaign cells included)
// and the distinct simulations among them.
func planShape(plan [svcClients][]svcRequest) (svcShape, error) {
	var shape svcShape
	seen := map[string]bool{}
	for _, reqs := range plan {
		for _, r := range reqs {
			if r.job != nil {
				shape.jobs++
				seen[string(r.job.Canonical())] = true
				continue
			}
			expanded, err := campaign.Expand(*r.camp, svcMaxCells)
			if err != nil {
				return shape, err
			}
			campSeen := map[string]bool{}
			for _, cell := range expanded {
				id := string(cell.Spec.Canonical())
				shape.jobs++
				shape.cells++
				seen[id] = true
				campSeen[id] = true
			}
			shape.distinctCells += len(campSeen)
		}
	}
	shape.distinct = len(seen)
	return shape, nil
}

// svcStats accumulates a phase's service rounds.
type svcStats struct {
	rounds int
	e2e    roundSamples
	// Pooled over the phase's rounds, for the per-layer metrics.
	hitMs     []float64
	waitMs    []float64
	runMs     []float64
	overMs    []float64
	campMs    []float64
	runByProf map[string][]float64
	jobs      int64
	hits      int64
	coalesced int64
	cellSims  int64
	cellsDist int64
}

func runService(b *bench) error {
	plan := servicePlan(b.seed)
	shape, err := planShape(plan)
	if err != nil {
		return err
	}
	fmt.Printf("service plan: %d jobs per round (%d campaign cells), %d distinct simulations (%d distinct cells)\n",
		shape.jobs, shape.cells, shape.distinct, shape.distinctCells)

	plain := svcStats{runByProf: map[string][]float64{}}
	var walls []float64
	alloc, gcs, err := memDelta(func() error {
		var err error
		walls, err = b.phase(1, func() error { return serviceRound(b, nil, plan, shape, &plain) })
		return err
	})
	if err != nil {
		return err
	}
	if !b.traced {
		b.setEndToEnd(&plain.e2e)
		return nil
	}
	traced := svcStats{runByProf: map[string][]float64{}}
	var twalls []float64
	if err := b.tracedPhase(func(tr *tracer) error {
		var err error
		twalls, err = b.phase(1, func() error { return serviceRound(b, tr, plan, shape, &traced) })
		return err
	}); err != nil {
		return err
	}
	for _, p := range svcProfiles {
		b.set("simsvc.run_ms_p50."+p, quantile(plain.runByProf[p], 0.5))
	}
	b.set("simsvc.queue_wait_ms_p50", quantile(plain.waitMs, 0.5))
	b.set("simsvc.run_ms_p50", quantile(plain.runMs, 0.5))
	b.set("simsvc.overhead_ms_p50", quantile(plain.overMs, 0.5))
	b.set("simsvc.hit_ms_p50", quantile(plain.hitMs, 0.5))
	b.set("simsvc.cache_hit_ratio", ratio(float64(plain.hits), float64(plain.jobs)))
	b.set("simsvc.coalesced", ratio(float64(plain.coalesced), float64(plain.rounds)))
	b.set("campaign.ms_p50", quantile(plain.campMs, 0.5))
	b.set("campaign.sims_per_distinct_cell", ratio(float64(plain.cellSims), float64(plain.cellsDist)))
	b.set("runtime.alloc_bytes_per_op", ratio(float64(alloc), float64(plain.jobs)))
	b.set("runtime.gc_cycles", ratio(float64(gcs), float64(plain.rounds)))
	b.set("bench.trace_overhead", ratio(median(twalls), median(walls)))
	return nil
}

// roundSamples holds one sample per service round of each end-to-end
// metric.
type roundSamples struct {
	simOpsPerS, jobsPerS, jobP50, jobP99, setupS []float64
}

// add records one round: its simulated-op and job rates, the latency of
// each of its jobs, and its set-up time.
func (r *roundSamples) add(b *bench, simOpsPerS, jobsPerS float64, jobMs []float64, setup time.Duration) {
	r.simOpsPerS = append(r.simOpsPerS, simOpsPerS)
	r.jobsPerS = append(r.jobsPerS, jobsPerS)
	r.jobP50 = append(r.jobP50, quantile(jobMs, 0.5))
	r.jobP99 = append(r.jobP99, p99(b, jobMs))
	r.setupS = append(r.setupS, setup.Seconds())
	fmt.Printf("round %d: sim_ops_per_s=%.6g jobs_per_s=%.6g job_ms_p50=%.4g job_ms_p99=%.4g setup_s=%.4g\n",
		len(r.setupS), simOpsPerS, jobsPerS, r.jobP50[len(r.jobP50)-1], r.jobP99[len(r.jobP99)-1], setup.Seconds())
}

// setEndToEnd reports the rates and set-up time of the median round
// and the latencies of the best one. Unlike the library workloads'
// batches, a service job's latency depends on what the other client is
// doing at the time, so jobs cannot be matched across rounds; whole
// rounds can. A disturbed host only ever adds latency, and a round's
// p99 rests on its ten slowest jobs, so the best round's latencies move
// less from run to run than the median round's; for the rates the
// median moves least (README.md gives the measurements).
func (b *bench) setEndToEnd(r *roundSamples) {
	b.set("sim_ops_per_s", median(r.simOpsPerS))
	b.set("jobs_per_s", median(r.jobsPerS))
	b.set("job_ms_p50", slices.Min(r.jobP50))
	b.set("job_ms_p99", slices.Min(r.jobP99))
	b.set("setup_s", median(r.setupS))
}

// svcShape is what every round of a plan must observe.
type svcShape struct {
	jobs, distinct, cells, distinctCells int
}

// svcServer is one in-process simd: the job manager and the campaign
// manager on one mux, wired as cmd/simd wires them, behind a loopback
// listener.
type svcServer struct {
	mgr    *simsvc.Manager
	camp   *campaign.Manager
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func startService(tr *tracer, root int64, job string) (*svcServer, error) {
	t0 := time.Now()
	s := &svcServer{mgr: simsvc.New(simsvc.Options{}), served: make(chan error, 1)}
	s.camp = campaign.New(s.mgr, campaign.Options{})
	mux := http.NewServeMux()
	s.camp.Register(mux)
	mux.Handle("/", s.mgr.Handler())
	t1 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: mux}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients, MaxConnsPerHost: svcClients}}
	t2 := time.Now()
	// The server has started once it answers.
	if _, err := s.get(context.Background(), "/healthz"); err != nil {
		s.stop()
		return nil, err
	}
	t3 := time.Now()
	tr.leaf(root, job, "simsvc.new", t0, t1)
	tr.leaf(root, job, "http.listen", t1, t2)
	tr.leaf(root, job, "http.first_response", t2, t3)
	return s, nil
}

// stop shuts the service down the way cmd/simd does and waits for the
// server goroutine to exit.
func (s *svcServer) stop() error {
	s.camp.CancelAll()
	s.mgr.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.mgr.Close()
	return err
}

// do sends one request and returns the body of a 2xx response.
func (s *svcServer) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *svcServer) get(ctx context.Context, path string) ([]byte, error) {
	return s.do(ctx, http.MethodGet, path, nil)
}

func (s *svcServer) post(ctx context.Context, path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return s.do(ctx, http.MethodPost, path, body)
}

// roundLog collects one round's observations from both clients.
type roundLog struct {
	mu       sync.Mutex
	payloads map[string][]byte // spec identity -> first payload seen
	simOps   int64
	jobMs    []float64 // client latency of every single job
	cellSims int64     // campaign cells that ran a simulation
	st       *svcStats
	failures []string
	jobs     int64
	hits     int64
}

func (l *roundLog) failf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// result records one finished job's payload: repeated specs must return
// byte-identical payloads, and every distinct payload must show all of
// its ops completed without error.
func (l *roundLog) result(identity, payload []byte, cached bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	if cached {
		l.hits++
	}
	prev, seen := l.payloads[string(identity)]
	if seen {
		if !bytes.Equal(prev, payload) {
			l.failures = append(l.failures, "a repeated spec returned a different payload")
		}
		return
	}
	l.payloads[string(identity)] = payload
	var res struct {
		Snapshot struct {
			Completed int64 `json:"completed"`
			Errors    int64 `json:"errors"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		l.failures = append(l.failures, "payload does not decode: "+err.Error())
		return
	}
	if res.Snapshot.Completed != svcOps || res.Snapshot.Errors != 0 {
		l.failures = append(l.failures, fmt.Sprintf("job completed %d of %d ops with %d errors", res.Snapshot.Completed, svcOps, res.Snapshot.Errors))
	}
	l.simOps += res.Snapshot.Completed
}

// serviceRound starts a fresh service, runs both clients' plans to the
// end, checks what the service did, and stops it.
func serviceRound(b *bench, tr *tracer, plan [svcClients][]svcRequest, shape svcShape, st *svcStats) error {
	st.rounds++
	round := fmt.Sprintf("service-%d", st.rounds)
	root := tr.newID()
	t0 := time.Now()
	srv, err := startService(tr, root, round)
	if err != nil {
		return err
	}
	setupEnd := time.Now()
	tr.leaf(root, round, "bench.setup", t0, setupEnd)

	log := &roundLog{payloads: map[string][]byte{}, st: st}
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, r := range plan[c] {
				id := fmt.Sprintf("%s/c%d/%d", round, c, k)
				if r.job != nil {
					srv.runJob(ctx, tr, root, id, r, log)
				} else {
					srv.runCampaign(ctx, tr, root, id, r, log)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	stats := srv.mgr.Stats()
	if err := srv.stop(); err != nil {
		return err
	}
	tr.add(root, 0, round, "bench.round", t0, time.Now())

	b.attempt(int64(shape.jobs))
	b.fail(int64(shape.jobs)-log.jobs, "jobs failed or never finished")
	for _, f := range log.failures {
		b.check(false, "%s: %s", round, f)
	}
	b.check(stats.JobsFailed == 0, "%s: the service failed %d jobs", round, stats.JobsFailed)
	b.check(stats.Run.N == uint64(shape.distinct), "%s: %d simulations for %d distinct specs", round, stats.Run.N, shape.distinct)
	b.check(log.hits == int64(shape.jobs-shape.distinct), "%s: %d jobs served without simulating, designed %d", round, log.hits, shape.jobs-shape.distinct)
	b.check(log.cellSims == int64(shape.distinctCells), "%s: %d campaign cells simulated, designed %d of %d",
		round, log.cellSims, shape.distinctCells, shape.cells)
	b.check(len(log.payloads) == shape.distinct, "%s: %d distinct payloads, want %d", round, len(log.payloads), shape.distinct)

	st.e2e.add(b, float64(log.simOps)/wall.Seconds(), float64(log.jobs)/wall.Seconds(), log.jobMs, setupEnd.Sub(t0))
	st.jobs += log.jobs
	st.hits += log.hits
	st.coalesced += int64(stats.Coalesced)

	// The digest covers every distinct payload in identity order, so it
	// does not depend on which client simulated a shared spec first.
	ids := make([]string, 0, len(log.payloads))
	for id := range log.payloads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write(log.payloads[id])
	}
	b.digest(round, fmt.Sprintf("%016x", h.Sum64()))
	return nil
}

// jobView is the part of simsvc.JobView the client reads.
type jobView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	QueueWaitMs float64         `json:"queue_wait_ms"`
	RunMs       float64         `json:"run_ms"`
	Result      json.RawMessage `json:"result"`
}

// runJob posts one job and waits for it to reach a terminal state.
func (s *svcServer) runJob(ctx context.Context, tr *tracer, root int64, id string, r svcRequest, log *roundLog) {
	span := tr.newID()
	t0 := time.Now()
	body, err := s.post(ctx, "/jobs", r.job)
	var v jobView
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	if err != nil {
		log.failf("%s: submit: %v", id, err)
		return
	}
	t1 := time.Now()
	body, err = s.get(ctx, "/jobs/"+v.ID+"?wait=1")
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	t2 := time.Now()
	if err != nil {
		log.failf("%s: wait: %v", id, err)
		return
	}
	if v.Status != "done" {
		log.failf("%s: job %s ended %s: %s", id, v.ID, v.Status, v.Error)
		return
	}
	lat := float64(t2.Sub(t0)) / float64(time.Millisecond)
	log.result(r.job.Canonical(), v.Result, v.Cached)

	tr.add(span, root, id, "client.job", t0, t2)
	tr.leaf(span, id, "http.post_job", t0, t1)
	tr.leaf(span, id, "http.wait_job", t1, t2)
	if v.Cached {
		tr.leaf(span, id, "simsvc.cache_hit", v.SubmittedAt, v.FinishedAt)
	} else {
		tr.leaf(span, id, "simsvc.queue_wait", v.SubmittedAt, v.StartedAt)
		tr.leaf(span, id, "simsvc.run", v.StartedAt, v.FinishedAt)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	log.jobMs = append(log.jobMs, lat)
	st := log.st
	if v.Cached {
		st.hitMs = append(st.hitMs, lat)
		return
	}
	st.waitMs = append(st.waitMs, v.QueueWaitMs)
	st.runMs = append(st.runMs, v.RunMs)
	st.overMs = append(st.overMs, lat-v.QueueWaitMs-v.RunMs)
	st.runByProf[r.profile] = append(st.runByProf[r.profile], v.RunMs)
}

// runCampaign posts one campaign, waits for it, and reads every cell's
// result from its stream.
func (s *svcServer) runCampaign(ctx context.Context, tr *tracer, root int64, id string, r svcRequest, log *roundLog) {
	span := tr.newID()
	t0 := time.Now()
	body, err := s.post(ctx, "/campaigns", r.camp)
	var p campaign.Progress
	if err == nil {
		err = json.Unmarshal(body, &p)
	}
	if err != nil {
		log.failf("%s: submit campaign: %v", id, err)
		return
	}
	t1 := time.Now()
	body, err = s.get(ctx, "/campaigns/"+p.ID+"?wait=1")
	if err == nil {
		err = json.Unmarshal(body, &p)
	}
	if err != nil {
		log.failf("%s: wait campaign: %v", id, err)
		return
	}
	t2 := time.Now()
	if p.Done != p.Total || p.Failed != 0 {
		log.failf("%s: campaign %s finished %d of %d cells, %d failed", id, p.ID, p.Done, p.Total, p.Failed)
	}
	body, err = s.get(ctx, "/campaigns/"+p.ID+"/stream")
	if err != nil {
		log.failf("%s: stream campaign: %v", id, err)
		return
	}
	t3 := time.Now()
	expanded, err := campaign.Expand(*r.camp, svcMaxCells)
	if err != nil {
		log.failf("%s: expand: %v", id, err)
		return
	}
	var sims, cells int64
	distinct := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var cr campaign.CellResult
		if err := json.Unmarshal(sc.Bytes(), &cr); err != nil {
			log.failf("%s: cell result: %v", id, err)
			return
		}
		if cr.Index < 0 || cr.Index >= len(expanded) || cr.Status != simsvc.StatusDone {
			log.failf("%s: cell %d ended %s: %s", id, cr.Index, cr.Status, cr.Error)
			continue
		}
		identity := expanded[cr.Index].Spec.Canonical()
		distinct[string(identity)] = true
		cells++
		if !cr.Cached {
			sims++
		}
		log.result(identity, cr.Result, cr.Cached)
	}
	if cells != int64(len(expanded)) {
		log.failf("%s: stream held %d of %d cells", id, cells, len(expanded))
	}

	tr.add(span, root, id, "client.campaign", t0, t3)
	tr.leaf(span, id, "http.post_campaign", t0, t1)
	tr.leaf(span, id, "http.wait_campaign", t1, t2)
	tr.leaf(span, id, "http.stream_campaign", t2, t3)

	log.mu.Lock()
	defer log.mu.Unlock()
	log.st.campMs = append(log.st.campMs, float64(t2.Sub(t0))/float64(time.Millisecond))
	log.cellSims += sims
	log.st.cellSims += sims
	log.st.cellsDist += int64(len(distinct))
}
