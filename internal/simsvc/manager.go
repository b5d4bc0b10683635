package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ossd/internal/core"
	"ossd/internal/runner"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// Options configures a Manager.
type Options struct {
	// Workers bounds concurrent simulations (<= 0: runner default).
	Workers int
	// Backlog bounds queued jobs; submits past it are shed (<= 0: 256).
	Backlog int
	// CacheEntries bounds the result cache (<= 0: 1024).
	CacheEntries int
	// SampleEvery sets the telemetry cadence in operations (<= 0: 1000).
	SampleEvery int
	// RetainJobs bounds the job table (<= 0: 1024): once it is full,
	// each submit evicts the oldest terminal job (and its telemetry).
	// Results live on in the cache; only the job-ID handle expires.
	RetainJobs int
	// Shed switches full-backlog submits from ErrPoolSaturated (HTTP
	// 503, clients typically retry) to a counted ErrShed (HTTP 429):
	// under overload the service sheds explicitly instead of letting
	// callers trade latency for a slot.
	Shed bool
	// Tier, when set, joins this manager to a fleet-wide cache tier:
	// cache keys are consistent-hashed across the configured peers, a
	// miss on a key another node owns is fetched (and coalesced) from
	// that owner, and payloads stay byte-identical no matter which node
	// answers. Nil runs the cache single-process as before.
	Tier *TierConfig
	// TenantQuotas caps how many jobs each submitting tenant class
	// (JobSpec.Tenant) may have occupying the worker pool — queued or
	// running — at once. A submit past the tenant's quota is rejected
	// with ErrTenantQuota (HTTP 429) and counted in /statsz, so one
	// tenant's burst cannot monopolize the pool. Tenants absent from the
	// map (including tenant 0) are unquotaed. Cached completions never
	// occupy the pool, so they are admitted regardless.
	TenantQuotas map[uint8]int
}

// Job is one submitted simulation and everything observable about it.
// All mutable fields are guarded by mu; cond broadcasts on every state
// or sample change so pollers and stream readers wake without spinning.
type Job struct {
	ID   string
	Spec JobSpec
	// key and identity are the spec's content address, computed once at
	// submit: identity is the canonical spec JSON, key its FNV-1a hash.
	key      uint64
	identity []byte
	// noPeer pins the job to local compute (SubmitLocal): set for jobs
	// the /cache handler recomputes on an owner, so a misconfigured
	// ring can never forward a request in a loop.
	noPeer bool

	mu     sync.Mutex
	cond   *sync.Cond
	status Status
	cached bool
	// cacheSource says where a cached payload came from: "local" (this
	// node's cache at submit), "coalesced" (a single-flight waiter), or
	// "peer" (fetched from the key's owner).
	cacheSource string
	errMsg      string
	result      []byte // marshaled Result, set when status == StatusDone
	samples     []Sample
	cancel      context.CancelFunc
	// Lifecycle timestamps (wall clock): submitted is set at Submit,
	// started when a worker picks the job up (zero for cache hits, which
	// never run), finished at the terminal transition.
	submitted time.Time
	started   time.Time
	finished  time.Time
	// evicted is set when the job's handle leaves the table (RetainJobs
	// eviction). Attached stream tails terminate on it instead of
	// outliving the job they can no longer be looked up by.
	evicted bool
}

// JobView is a job's serialized state (GET /jobs/{id}). Result holds the
// cached payload verbatim, so identical specs yield byte-identical
// result fields. The lifecycle timestamps are wall clock (not simulated
// time): StartedAt is zero for cache hits, which complete without ever
// running; QueueWaitMs and RunMs are derived conveniences (zero until
// the phase they measure has completed).
type JobView struct {
	ID          string          `json:"id"`
	Status      Status          `json:"status"`
	Cached      bool            `json:"cached"`
	CacheSource string          `json:"cache_source,omitempty"`
	Error       string          `json:"error,omitempty"`
	Samples     int             `json:"samples"`
	SubmittedAt time.Time       `json:"submitted_at,omitzero"`
	StartedAt   time.Time       `json:"started_at,omitzero"`
	FinishedAt  time.Time       `json:"finished_at,omitzero"`
	QueueWaitMs float64         `json:"queue_wait_ms,omitempty"`
	RunMs       float64         `json:"run_ms,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Status:      j.status,
		Cached:      j.cached,
		CacheSource: j.cacheSource,
		Error:       j.errMsg,
		Samples:     len(j.samples),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Result:      json.RawMessage(j.result),
	}
	if !j.started.IsZero() {
		v.QueueWaitMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		if !j.finished.IsZero() {
			v.RunMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return v
}

// fail marks the job failed with the given cause.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = StatusFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// addSample appends one telemetry observation.
func (j *Job) addSample(s Sample) {
	j.mu.Lock()
	j.samples = append(j.samples, s)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Manager owns the job table, the worker pool, and the result cache —
// and, when a TierConfig is set, this node's membership in the fleet's
// sharded cache tier.
type Manager struct {
	opts  Options
	pool  *runner.Pool
	cache *cache
	tier  *tier // nil outside a fleet

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // job IDs in submission order, for eviction
	seq   int64

	// flightMu guards flights, the single-flight table: one entry per
	// cache key currently being computed (see flight.go).
	flightMu sync.Mutex
	flights  map[uint64]*flight

	// expSem serializes POST /experiments runs: experiments fan out
	// internally and are far heavier than jobs, so concurrent requests
	// past the bound are shed instead of stacking on handler goroutines.
	expSem chan struct{}

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	running   atomic.Int64
	coalesced atomic.Uint64 // single-flight waiters collapsed onto a primary
	shedCt    atomic.Uint64 // submits rejected by shed mode

	// tenantMu guards tenantCt, the per-tenant job counters surfaced in
	// /statsz. Only nonzero tenants are tracked: tenant 0 is the legacy
	// untenanted default and stays out of the per-tenant view, the same
	// convention trace.Stats uses.
	tenantMu sync.Mutex
	tenantCt map[uint8]*tenantCounter

	// aggMu guards the duration aggregates: queue wait is recorded when
	// a worker picks a job up, run duration when a simulation completes.
	// Cache hits never run, so they appear in neither.
	aggMu     sync.Mutex
	queueWait stats.Mean
	runDur    stats.Mean

	// campaignStats, when set, is folded into Stats under "campaigns" —
	// the hook the campaign subsystem uses to surface its counters in
	// /statsz without simsvc importing it.
	campaignStats func() any
}

// New builds a Manager and starts its worker pool.
func New(opts Options) *Manager {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 1000
	}
	if opts.Workers <= 0 {
		opts.Workers = runner.DefaultWorkers()
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 1024
	}
	m := &Manager{
		opts:     opts,
		pool:     runner.NewPool(opts.Workers, opts.Backlog),
		cache:    newCache(opts.CacheEntries),
		jobs:     map[string]*Job{},
		flights:  map[uint64]*flight{},
		expSem:   make(chan struct{}, 1),
		tenantCt: map[uint8]*tenantCounter{},
	}
	if opts.Tier != nil {
		m.tier = newTier(*opts.Tier)
	}
	return m
}

// ErrShed is returned by Submit in shed mode when the pool backlog is
// full: the service rejects explicitly (HTTP 429) instead of letting
// the caller queue behind the overload. Counted in /statsz.
var ErrShed = errors.New("simsvc: shedding load (pool backlog full)")

// ErrTenantQuota is returned by Submit when the spec's tenant already
// has its quota of jobs occupying the worker pool (Options.TenantQuotas).
// Counted per tenant in /statsz.
var ErrTenantQuota = errors.New("simsvc: tenant quota exceeded")

// tenantCounter accumulates one tenant's job counters.
type tenantCounter struct {
	submitted, completed, failed, quotaRejected int64
}

// tenantAdd applies f to tenant t's counter. Tenant 0 (untenanted) is
// not tracked.
func (m *Manager) tenantAdd(t uint8, f func(*tenantCounter)) {
	if t == 0 {
		return
	}
	m.tenantMu.Lock()
	c := m.tenantCt[t]
	if c == nil {
		c = &tenantCounter{}
		m.tenantCt[t] = c
	}
	f(c)
	m.tenantMu.Unlock()
}

// tenantInFlight counts tenant t's jobs occupying the pool: submitted
// and not yet terminal. Cached completions are terminal at submit and
// never counted.
func (m *Manager) tenantInFlight(t uint8) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, job := range m.jobs {
		if job.Spec.Tenant != t {
			continue
		}
		job.mu.Lock()
		if !job.status.terminal() {
			n++
		}
		job.mu.Unlock()
	}
	return n
}

// Submit validates a spec and enqueues it, returning the job record. A
// cache hit completes the job immediately — no worker, no simulation —
// with the memoized payload; a spec identical to one already in flight
// (here or, via the tier, on the key's owner) coalesces onto that
// computation instead of repeating it.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.submit(spec, true)
}

// SubmitLocal is Submit pinned to this node: the job never consults the
// peer tier. The /cache handler uses it to recompute owned keys, so a
// misconfigured ring can never bounce a request between nodes.
func (m *Manager) SubmitLocal(spec JobSpec) (*Job, error) {
	return m.submit(spec, false)
}

func (m *Manager) submit(spec JobSpec, allowPeer bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if q, ok := m.opts.TenantQuotas[spec.Tenant]; ok && q > 0 {
		if n := m.tenantInFlight(spec.Tenant); n >= q {
			m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.quotaRejected++ })
			return nil, fmt.Errorf("%w: tenant %d has %d jobs in flight (quota %d)",
				ErrTenantQuota, spec.Tenant, n, q)
		}
	}
	identity := spec.Canonical()
	job := &Job{
		Spec:      spec,
		key:       identityKey(identity),
		identity:  identity,
		noPeer:    !allowPeer,
		status:    StatusQueued,
		submitted: time.Now(),
	}
	job.cond = sync.NewCond(&job.mu)

	m.mu.Lock()
	m.seq++
	job.ID = fmt.Sprintf("job-%d", m.seq)
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.evictLocked()
	m.mu.Unlock()
	m.submitted.Add(1)
	m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.submitted++ })

	primary, settled := m.joinOrStartFlight(job)
	if settled || !primary {
		// A cache hit completed the job; a coalesced waiter completes
		// when its primary resolves. Neither needs a worker.
		return job, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	job.mu.Lock()
	job.cancel = cancel
	job.mu.Unlock()
	if err := m.pool.Submit(func() { m.run(ctx, job) }); err != nil {
		if errors.Is(err, runner.ErrPoolSaturated) && m.opts.Shed {
			m.shedCt.Add(1)
			err = ErrShed
		}
		// Shed: the caller never learns this job's ID, so drop the
		// record too — a rejection must not grow the job table. Any
		// waiter that coalesced onto us in the window above fails with
		// the same error.
		cancel()
		m.resolveFlight(job.key, nil, err)
		m.mu.Lock()
		delete(m.jobs, job.ID)
		for i := len(m.order) - 1; i >= 0; i-- { // ours is at or near the end
			if m.order[i] == job.ID {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		m.failed.Add(1)
		m.tenantAdd(spec.Tenant, func(c *tenantCounter) { c.failed++ })
		return nil, err
	}
	return job, nil
}

// evictLocked (m.mu held) drops the oldest terminal jobs while the
// table exceeds its bound. Live jobs are never evicted, so the table
// can exceed the bound transiently by the number of in-flight jobs
// (itself bounded by workers + backlog).
func (m *Manager) evictLocked() {
	excess := len(m.jobs) - m.opts.RetainJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		job, ok := m.jobs[id]
		if !ok {
			continue
		}
		evict := false
		if excess > 0 {
			job.mu.Lock()
			evict = job.status.terminal()
			job.mu.Unlock()
		}
		if evict {
			delete(m.jobs, id)
			excess--
			// Wake any attached stream tails: the handle is gone, so
			// they must terminate instead of tailing an unreachable job.
			job.mu.Lock()
			job.evicted = true
			job.cond.Broadcast()
			job.mu.Unlock()
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// run executes one job on a worker. In a fleet, a key owned by another
// node is first fetched from that owner (coalescing onto the owner's
// in-flight computation if one exists); only if the owner has nothing
// — or is down, timing out, or shedding — does this worker build the
// device, precondition, and drive the sampled workload itself. Either
// way the payload lands in the local cache and resolves this node's
// single-flight waiters.
func (m *Manager) run(ctx context.Context, job *Job) {
	job.mu.Lock()
	if job.status.terminal() {
		// Cancelled while still queued: Cancel already failed the job
		// (and counted it); the worker has nothing to do — but any
		// coalesced waiters must learn their primary died.
		job.mu.Unlock()
		m.resolveFlight(job.key, nil, context.Canceled)
		return
	}
	job.status = StatusRunning
	job.started = time.Now()
	wait := job.started.Sub(job.submitted)
	job.cond.Broadcast()
	job.mu.Unlock()
	m.aggMu.Lock()
	m.queueWait.Add(float64(wait) / float64(time.Millisecond))
	m.aggMu.Unlock()
	m.running.Add(1)
	defer m.running.Add(-1)

	var owner string
	if !job.noPeer && m.tier != nil {
		owner = m.tier.owner(job.key)
	}
	if owner != "" {
		if payload, ok := fetch(ctx, m.tier, owner, job.key, job.identity); ok {
			// Fleet hit: keep an L1 copy so repeats are local, settle
			// waiters, and finish the job as a cached completion —
			// byte-identical to what the owner (or any node) serves.
			m.cache.put(job.key, job.identity, payload)
			m.resolveFlight(job.key, payload, nil)
			m.completeCached(job, payload, "peer")
			return
		}
	}

	res, err := m.simulate(ctx, job)
	if err != nil {
		job.fail(err)
		m.failed.Add(1)
		m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.failed++ })
		m.resolveFlight(job.key, nil, err)
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		job.fail(err)
		m.failed.Add(1)
		m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.failed++ })
		m.resolveFlight(job.key, nil, err)
		return
	}
	// Count the simulation before waking anyone waiting on it, so a
	// waiter that reads Stats sees the run it waited for.
	finished := time.Now()
	m.aggMu.Lock()
	m.runDur.Add(float64(finished.Sub(job.started)) / float64(time.Millisecond))
	m.aggMu.Unlock()
	m.completed.Add(1)
	m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.completed++ })
	m.cache.put(job.key, job.identity, payload)
	m.resolveFlight(job.key, payload, nil)
	if owner != "" {
		// Computed locally for a key someone else owns (the owner was
		// down or shedding): push the payload so the tier converges on
		// owner-holds-the-entry. Best-effort and off the worker.
		go push(m.tier, owner, job.key, job.identity, payload)
	}
	job.mu.Lock()
	job.result = payload
	job.status = StatusDone
	job.finished = finished
	job.cond.Broadcast()
	job.mu.Unlock()
}

// simulate is the deterministic part of run: everything that feeds the
// result payload depends only on the spec.
func (m *Manager) simulate(ctx context.Context, job *Job) (Result, error) {
	spec := job.Spec
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	opts, err := spec.Options.build()
	if err != nil {
		return Result{}, err
	}
	if spec.Fault != nil {
		opts = append(opts, core.WithFault(spec.Fault))
	}
	if w := spec.tenantWeights(); w != nil {
		opts = append(opts, core.WithTenantWeights(w))
	}
	dev, err := core.Open(spec.Profile, opts...)
	if err != nil {
		return Result{}, err
	}
	if spec.PreconditionFrac > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := core.PreconditionFrac(dev, 1<<20, spec.PreconditionFrac); err != nil {
			return Result{}, err
		}
	}
	var stream trace.Stream
	if len(spec.Tenants) > 0 {
		stream, err = spec.tenantStream()
	} else {
		stream, err = workload.NewStream(spec.Workload, spec.Params)
	}
	if err != nil {
		return Result{}, err
	}
	if spec.OpLimit > 0 {
		stream = trace.Limit(stream, spec.OpLimit)
	}
	// A power-loss point truncates the measured run at its op count: the
	// stream simply ends there (the in-flight tail drains, the rest of
	// the workload is never issued), then recovery replays below.
	if pl := spec.Fault.PowerLossPoint(); pl != nil {
		if spec.OpLimit == 0 || int64(spec.OpLimit) > pl.AtOps {
			stream = trace.Limit(stream, int(pl.AtOps))
		}
	}
	// Shift trace timestamps past the preconditioning window and tally
	// the workload summary as ops flow by.
	var wl trace.Stats
	stream = trace.Tally(trace.Shift(stream, dev.Engine().Now()), &wl)

	start := dev.Engine().Now()
	before := dev.Metrics()
	if _, err := DriveSampled(ctx, dev, stream, m.opts.SampleEvery, job.addSample); err != nil {
		return Result{}, err
	}
	// After a power loss the device comes back and replays recovery: a
	// sequential scan whose reads land on the same metrics, so the
	// snapshot below reflects the truncated run plus the remount cost.
	if pl := spec.Fault.PowerLossPoint(); pl != nil {
		if err := core.ReplayRecovery(dev, pl.ReplayFrac); err != nil {
			return Result{}, err
		}
	}
	elapsed := (dev.Engine().Now() - start).Seconds()
	after := dev.Metrics()
	return Result{
		Spec:             spec,
		Snapshot:         after,
		Workload:         wl,
		SimulatedSeconds: elapsed,
		ReadMBps:         stats.Bandwidth(after.BytesRead-before.BytesRead, elapsed),
		WriteMBps:        stats.Bandwidth(after.BytesWritten-before.BytesWritten, elapsed),
	}, nil
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. A running
// job transitions to failed (context.Canceled) at its next op boundary;
// a job still waiting for a worker fails immediately — its waiters and
// stream tails would otherwise stay blocked until a worker got around
// to noticing the dead context, which behind a long backlog can be
// arbitrarily far in the future. Cancelling a terminal job is a no-op
// reporting false.
func (m *Manager) Cancel(id string) (bool, error) {
	job, ok := m.Job(id)
	if !ok {
		return false, fmt.Errorf("simsvc: no job %q", id)
	}
	job.mu.Lock()
	cancel := job.cancel
	live := !job.status.terminal()
	if live && job.status == StatusQueued {
		job.status = StatusFailed
		job.errMsg = context.Canceled.Error()
		job.finished = time.Now()
		job.cond.Broadcast()
		m.failed.Add(1)
		m.tenantAdd(job.Spec.Tenant, func(c *tenantCounter) { c.failed++ })
	}
	job.mu.Unlock()
	if !live {
		return false, nil
	}
	if cancel != nil {
		cancel()
	}
	return true, nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its view. Holding the *Job keeps Wait valid even after the
// job's handle is evicted from the manager's table.
func (j *Job) Wait(ctx context.Context) (JobView, error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	for !j.status.terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	j.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return JobView{}, err
	}
	return j.View(), nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its view.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	job, ok := m.Job(id)
	if !ok {
		return JobView{}, fmt.Errorf("simsvc: no job %q", id)
	}
	return job.Wait(ctx)
}

// ErrJobEvicted terminates a sample stream whose job was evicted from
// the table while the stream was attached: the handle is gone, so the
// tail ends instead of outliving the job indefinitely.
var ErrJobEvicted = errors.New("simsvc: job evicted while streaming")

// StreamSamples replays the job's telemetry from the beginning and then
// tails it live, calling fn for each sample in order, until the job is
// terminal and fully delivered, fn errors (client gone), ctx ends, or
// the job is evicted from the table (ErrJobEvicted). A subscriber that
// connects after the job finished still receives every retained sample.
func (m *Manager) StreamSamples(ctx context.Context, id string, fn func(Sample) error) error {
	job, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("simsvc: no job %q", id)
	}
	stop := context.AfterFunc(ctx, func() {
		job.mu.Lock()
		job.cond.Broadcast()
		job.mu.Unlock()
	})
	defer stop()
	i := 0
	for {
		job.mu.Lock()
		for i >= len(job.samples) && !job.status.terminal() && !job.evicted && ctx.Err() == nil {
			job.cond.Wait()
		}
		pending := job.samples[i:]
		done := job.status.terminal()
		evicted := job.evicted
		job.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		// Retained samples are never discarded: deliver what was
		// snapshotted before acting on eviction, and a stream that has
		// fully delivered a finished job completes cleanly even if the
		// handle was evicted while the last batch was on the wire.
		for _, s := range pending {
			if err := fn(s); err != nil {
				return err
			}
			i++
		}
		if done && len(pending) == 0 {
			return nil
		}
		if evicted {
			return ErrJobEvicted
		}
	}
}

// DurationAgg summarizes a population of wall-clock durations in
// milliseconds (GET /statsz).
type DurationAgg struct {
	N      uint64  `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// durationAgg snapshots a stats.Mean of millisecond samples.
func durationAgg(m stats.Mean) DurationAgg {
	return DurationAgg{N: m.N(), MeanMs: m.Mean(), MinMs: m.Min(), MaxMs: m.Max()}
}

// Stats is the service's aggregate state (GET /statsz). QueueWait
// covers every job a worker picked up (submit → start); Run covers
// completed simulations (start → done); cache hits appear in neither.
type Stats struct {
	Workers       int   `json:"workers"`
	SampleEvery   int   `json:"sample_every"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	// JobsShed counts submits rejected by shed mode (HTTP 429); zero
	// unless the manager runs with Options.Shed.
	JobsShed uint64 `json:"jobs_shed"`
	// Coalesced counts single-flight waiters: jobs that attached to an
	// identical in-flight computation instead of simulating.
	Coalesced uint64      `json:"coalesced"`
	QueueWait DurationAgg `json:"queue_wait"`
	Run       DurationAgg `json:"run"`
	Cache     CacheStats  `json:"cache"`
	// Tier is the fleet cache tier's counters when this node is peered
	// (Options.Tier), absent otherwise.
	Tier *TierStats `json:"tier,omitempty"`
	// Campaigns is the campaign subsystem's counters when one is
	// attached (SetCampaignStats), absent otherwise.
	Campaigns any `json:"campaigns,omitempty"`
	// Tenants are the per-tenant job counters, in tenant order, one entry
	// per nonzero tenant class that has submitted (or been quota-rejected)
	// since startup. Absent while every job is untenanted, so the legacy
	// /statsz payload is unchanged.
	Tenants []TenantJobStats `json:"tenants,omitempty"`
}

// TenantJobStats is one tenant class's job counters (GET /statsz).
type TenantJobStats struct {
	Tenant    int   `json:"tenant"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// InFlight counts the tenant's jobs currently occupying the pool
	// (queued or running) — the number the tenant's quota bounds.
	InFlight int `json:"in_flight"`
	// QuotaRejected counts submits refused with ErrTenantQuota.
	QuotaRejected int64 `json:"quota_rejected"`
	// Quota echoes the tenant's configured in-flight cap (0 = none).
	Quota int `json:"quota,omitempty"`
}

// Stats reports the manager's counters.
func (m *Manager) Stats() Stats {
	m.aggMu.Lock()
	queueWait, runDur := m.queueWait, m.runDur
	m.aggMu.Unlock()
	s := Stats{
		Workers:       m.opts.Workers,
		SampleEvery:   m.opts.SampleEvery,
		JobsSubmitted: m.submitted.Load(),
		JobsRunning:   m.running.Load(),
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsShed:      m.shedCt.Load(),
		Coalesced:     m.coalesced.Load(),
		QueueWait:     durationAgg(queueWait),
		Run:           durationAgg(runDur),
		Cache:         m.cache.stats(),
	}
	if m.tier != nil {
		tierStats := m.tier.stats()
		s.Tier = &tierStats
	}
	m.mu.Lock()
	campaigns := m.campaignStats
	m.mu.Unlock()
	if campaigns != nil {
		s.Campaigns = campaigns()
	}
	s.Tenants = m.tenantStats()
	return s
}

// tenantStats snapshots the per-tenant counters in tenant order.
func (m *Manager) tenantStats() []TenantJobStats {
	m.tenantMu.Lock()
	ids := make([]int, 0, len(m.tenantCt))
	for t := range m.tenantCt {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	out := make([]TenantJobStats, 0, len(ids))
	for _, id := range ids {
		c := m.tenantCt[uint8(id)]
		out = append(out, TenantJobStats{
			Tenant:        id,
			Submitted:     c.submitted,
			Completed:     c.completed,
			Failed:        c.failed,
			QuotaRejected: c.quotaRejected,
			Quota:         m.opts.TenantQuotas[uint8(id)],
		})
	}
	m.tenantMu.Unlock()
	for i := range out {
		out[i].InFlight = m.tenantInFlight(uint8(out[i].Tenant))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Workers reports the worker-pool size, the fan-out a campaign's ETA
// divides its remaining work across.
func (m *Manager) Workers() int { return m.opts.Workers }

// SetCampaignStats attaches the campaign subsystem's counters to
// /statsz. fn must be safe for concurrent use.
func (m *Manager) SetCampaignStats(fn func() any) {
	m.mu.Lock()
	m.campaignStats = fn
	m.mu.Unlock()
}

// CancelAll cancels every queued and running job: each stops at its
// next op boundary and reports failed, waking its waiters and stream
// subscribers. Called ahead of HTTP shutdown so blocked ?wait=1 and
// /stream handlers complete with responses instead of being cut off.
func (m *Manager) CancelAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, job := range m.jobs {
		job.mu.Lock()
		if cancel := job.cancel; cancel != nil && !job.status.terminal() {
			cancel()
		}
		job.mu.Unlock()
	}
}

// Close shuts the manager down gracefully: in-flight jobs are cancelled
// (they stop at their next op boundary and report failed), the queue
// drains, and the workers exit.
func (m *Manager) Close() {
	m.CancelAll()
	m.pool.Close()
}
