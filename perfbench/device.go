package main

import (
	"fmt"
	"slices"
	"time"

	"ossd/internal/core"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// probe sits between a workload stream and the device that pulls it.
// Devices pull once per arrival, so every pull samples the device's
// queue depth and the engine's pending events. Every batch pulls it
// stamps the host clock: the time to simulate one batch of operations
// is the latency sample of a "job" on the library workloads. Traced, it
// also times each Stream.Next.
type probe struct {
	src      trace.Stream
	dev      core.Device
	batch    int64
	timeNext bool

	pulled   int64
	stamp    time.Time
	batchMs  []float64
	depthSum int64
	depthN   int64
	depthMax int
	pendMax  int
	nextDur  time.Duration
	nextMax  time.Duration
}

func newProbe(src trace.Stream, dev core.Device, batch int64, timeNext bool) *probe {
	return &probe{src: src, dev: dev, batch: batch, timeNext: timeNext, stamp: time.Now()}
}

// Next implements trace.Stream.
func (p *probe) Next() (trace.Op, bool) {
	depth := p.dev.QueueDepth()
	p.depthSum += int64(depth)
	p.depthN++
	p.depthMax = max(p.depthMax, depth)
	p.pendMax = max(p.pendMax, p.dev.Engine().Pending())
	var op trace.Op
	var ok bool
	if p.timeNext {
		t0 := time.Now()
		op, ok = p.src.Next()
		d := time.Since(t0)
		p.nextDur += d
		p.nextMax = max(p.nextMax, d)
	} else {
		op, ok = p.src.Next()
	}
	if !ok {
		return op, false
	}
	p.pulled++
	if p.pulled%p.batch == 0 {
		now := time.Now()
		p.batchMs = append(p.batchMs, float64(now.Sub(p.stamp))/float64(time.Millisecond))
		p.stamp = now
	}
	return op, true
}

// Err implements trace.ErrStream, so a generator error still reaches
// the device's Drive.
func (p *probe) Err() error { return trace.Err(p.src) }

// replayStats accumulates a phase's device replays: the end-to-end
// samples and the per-layer view.
type replayStats struct {
	rounds int
	setupS []float64
	// fastest holds, per replay (default, informed, steady), the fastest
	// host time seen for each of its batches over the phase's rounds.
	fastest map[string]*fastestReplay

	ops, events   int64
	drive, next   time.Duration
	nextMax       time.Duration
	depthSum      int64
	depthN        int64
	depthMax      int
	pendMax       int
	hostWrites    int64
	moved         int64
	writeAmp      []float64
	metricsUs     []float64
	preconditionS []float64
	relMoved      []float64
}

// mark is a device's counters when a replay starts.
type mark struct {
	snap   core.Snapshot
	gc     ssd.GCStats
	events uint64
}

func markOf(d *core.SSD) mark {
	return mark{snap: d.Metrics(), gc: d.Raw.GCStats(), events: d.Engine().Processed()}
}

// replayed folds one finished replay into the stats and runs its
// correctness gate: every pulled op completed without error, and every
// element's FTL mapping is consistent.
func (b *bench) replayed(tr *tracer, root int64, job, replay string, d *core.SSD, m mark, p *probe, start, end time.Time, st *replayStats) {
	after := d.Metrics()
	completed := after.Completed - m.snap.Completed
	drive := end.Sub(start)
	b.fastest(st, replay, completed, p.batchMs, float64(end.Sub(p.stamp))/float64(time.Millisecond))
	fmt.Printf("round %d %s: sim_ops_per_s=%.6g\n", st.rounds, replay, float64(completed)/drive.Seconds())
	st.ops += p.pulled
	st.events += int64(d.Engine().Processed() - m.events)
	st.drive += drive
	st.next += p.nextDur
	st.nextMax = max(st.nextMax, p.nextMax)
	st.depthSum += p.depthSum
	st.depthN += p.depthN
	st.depthMax = max(st.depthMax, p.depthMax)
	st.pendMax = max(st.pendMax, p.pendMax)
	tr.aggregate("workload.next", p.pulled, p.nextDur, p.nextMax)

	b.attempt(p.pulled)
	b.fail(p.pulled-completed, job+" ops never completed")
	b.fail(after.Errors-m.snap.Errors, job+" ops completed with an error")
	t0 := time.Now()
	for i, el := range d.Raw.Elements() {
		if err := el.CheckInvariants(); err != nil {
			b.check(false, "%s element %d: %v", job, i, err)
		}
	}
	t1 := time.Now()
	tr.leaf(root, job, "ftl.check_invariants", t0, t1)
	st.metricsUs = append(st.metricsUs, timeMetrics(d))
	t2 := time.Now()
	tr.leaf(root, job, "core.metrics", t1, t2)
	g := d.Raw.GCStats()
	st.hostWrites += g.HostPageWrites - m.gc.HostPageWrites
	st.moved += g.PagesMoved - m.gc.PagesMoved
	st.writeAmp = append(st.writeAmp, d.Raw.WriteAmplification())
	tr.leaf(root, job, "ssd.gc_stats", t2, time.Now())
}

// runReplays runs a library workload (postmark or steady): round builds
// fresh devices and replays the workload on them. Untraced, it sets the
// end-to-end metrics. Traced, it runs the untraced phase, then the same
// rounds traced, and sets the per-layer metrics from both.
func (b *bench) runReplays(minRounds int, round func(b *bench, tr *tracer, st *replayStats) error) error {
	var plain replayStats
	var walls []float64
	alloc, gcs, err := memDelta(func() error {
		var err error
		walls, err = b.phase(minRounds, func() error { return round(b, nil, &plain) })
		return err
	})
	if err != nil {
		return err
	}
	if !b.traced {
		b.setReplayEndToEnd(&plain)
		return nil
	}
	var traced replayStats
	var twalls []float64
	if err := b.tracedPhase(func(tr *tracer) error {
		var err error
		twalls, err = b.phase(1, func() error { return round(b, tr, &traced) })
		return err
	}); err != nil {
		return err
	}
	b.set("runtime.alloc_bytes_per_op", ratio(float64(alloc), float64(plain.ops)))
	b.set("runtime.gc_cycles", ratio(float64(gcs), float64(plain.rounds)))
	b.set("bench.trace_overhead", ratio(median(twalls), median(walls)))
	b.set("workload.next_ns", ratio(float64(traced.next), float64(traced.ops)))
	b.set("core.drive_ns_per_op", ratio(float64(traced.drive-traced.next), float64(traced.ops)))
	b.set("core.precondition_s", median(plain.preconditionS))
	b.set("core.metrics_us", median(plain.metricsUs))
	b.set("sim.events_per_op", ratio(float64(plain.events), float64(plain.ops)))
	b.set("sim.ns_per_event", ratio(float64(plain.drive), float64(plain.events)))
	b.set("sim.pending_max", float64(plain.pendMax))
	b.set("sched.queue_depth_mean", ratio(float64(plain.depthSum), float64(plain.depthN)))
	b.set("sched.queue_depth_max", float64(plain.depthMax))
	b.set("ftl.pages_moved_per_write", ratio(float64(plain.moved), float64(plain.hostWrites)))
	b.set("ssd.write_amp", median(plain.writeAmp))
	b.set("ftl.rel_pages_moved", median(plain.relMoved))
	return nil
}

// fastestReplay is the fastest host time seen for each batch of one
// replay, and for the drain after its last arrival, over a phase's
// rounds. Every round replays the same ops, so batch i is the same
// simulated work in every round.
type fastestReplay struct {
	ops     int64
	batchMs []float64
	drainMs float64
}

// fastest folds one replay's batch times into the phase's fastest.
func (b *bench) fastest(st *replayStats, replay string, ops int64, batchMs []float64, drainMs float64) {
	if st.fastest == nil {
		st.fastest = map[string]*fastestReplay{}
	}
	f := st.fastest[replay]
	if f == nil {
		st.fastest[replay] = &fastestReplay{ops: ops, batchMs: slices.Clone(batchMs), drainMs: drainMs}
		return
	}
	if f.ops != ops || len(f.batchMs) != len(batchMs) {
		b.check(false, "%s replays differ between rounds: %d ops in %d batches, then %d in %d",
			replay, f.ops, len(f.batchMs), ops, len(batchMs))
		return
	}
	for i, ms := range batchMs {
		f.batchMs[i] = min(f.batchMs[i], ms)
	}
	f.drainMs = min(f.drainMs, drainMs)
}

// setReplayEndToEnd reports the library workloads' end-to-end metrics
// from the fastest time of each batch (a job here is a batch of
// simulated ops), and set-up time from the median set-up.
func (b *bench) setReplayEndToEnd(st *replayStats) {
	var ops int64
	var batchMs []float64
	var totalMs, batchTotalMs float64
	for _, f := range st.fastest {
		ops += f.ops
		batchMs = append(batchMs, f.batchMs...)
		for _, ms := range f.batchMs {
			batchTotalMs += ms
		}
		totalMs += f.drainMs
	}
	totalMs += batchTotalMs
	b.set("sim_ops_per_s", ratio(float64(ops), totalMs/1000))
	b.set("jobs_per_s", ratio(float64(len(batchMs)), batchTotalMs/1000))
	b.set("job_ms_p50", quantile(batchMs, 0.5))
	b.set("job_ms_p99", p99(b, batchMs))
	b.set("setup_s", median(st.setupS))
}

// ssdDigest is the canonical text of a flash device's simulated
// statistics: completed ops, final simulated clock, pages moved, clean
// time and latency percentiles.
func ssdDigest(d *core.SSD) string {
	m := d.Metrics()
	g := d.Raw.GCStats()
	return fmt.Sprintf("completed=%d now=%d moved=%d clean=%d read=%v/%v/%v write=%v/%v/%v;",
		m.Completed, d.Engine().Now(), g.PagesMoved, g.CleanTime,
		m.P50ReadMs, m.P95ReadMs, m.P99ReadMs, m.P50WriteMs, m.P95WriteMs, m.P99WriteMs)
}

// timeMetrics times calls to Metrics(), the snapshot every job result
// is built from, in microseconds per call.
func timeMetrics(d core.Device) float64 {
	const calls = 20
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		d.Metrics()
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / calls
}
