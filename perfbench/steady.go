package main

import (
	"fmt"
	"time"

	"ossd/internal/core"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// The steady workload is a closed loop over uniform random 4 KiB ops,
// half reads and half writes, on the 8-element base SSD preconditioned
// to 80% so that cleaning runs all the time. The queue stays shallow, so
// the work sits in ftl/ssd cleaning, the sim engine and the read path:
// it is the workload a sched backlog fix must leave unchanged, and its
// read/write mix shows a write-path gain that costs reads.
const (
	steadyFill  = 0.8
	steadyDepth = 8 // no deeper than the element count
	steadyOps   = 400_000
	// steadyBatch ops make one latency sample ("job"): 2,000 per round.
	steadyBatch = 200
)

func runSteady(b *bench) error { return b.runReplays(1, steadyRound) }

// steadyRound builds, preconditions and drives one fresh device.
func steadyRound(b *bench, tr *tracer, st *replayStats) error {
	st.rounds++
	job := fmt.Sprintf("steady-%d", st.rounds)
	root := tr.newID()
	t0 := time.Now()
	dev, err := core.Open("ssd")
	if err != nil {
		return err
	}
	d := dev.(*core.SSD)
	elements := len(d.Raw.Elements())
	if elements < steadyDepth {
		return fmt.Errorf("steady: %d elements, loop depth %d", elements, steadyDepth)
	}
	t1 := time.Now()
	if err := core.PreconditionFrac(d, 1<<20, steadyFill); err != nil {
		return err
	}
	t2 := time.Now()
	s, err := workload.Synthetic(workload.SyntheticConfig{
		Ops:          steadyOps,
		AddressSpace: d.LogicalBytes(),
		ReadFrac:     0.5,
		ReqSize:      4096,
		Seed:         b.seed,
	})
	if err != nil {
		return err
	}
	t3 := time.Now()
	st.setupS = append(st.setupS, t3.Sub(t0).Seconds())
	st.preconditionS = append(st.preconditionS, t2.Sub(t1).Seconds())
	setup := tr.newID()
	tr.leaf(setup, job, "core.open", t0, t1)
	tr.leaf(setup, job, "core.precondition", t1, t2)
	tr.leaf(setup, job, "workload.synthetic", t2, t3)
	tr.add(setup, root, job, "bench.setup", t0, t3)

	m := markOf(d)
	p := newProbe(s, d, steadyBatch, tr != nil)
	start := time.Now()
	err = d.ClosedLoop(steadyDepth, func(int) (trace.Op, bool) { return p.Next() })
	end := time.Now()
	b.check(err == nil, "%s closed loop: %v", job, err)
	tr.leaf(root, job, "core.closed_loop", start, end)
	b.replayed(tr, root, job, "steady", d, m, p, start, end, st)
	b.check(p.pulled == steadyOps, "%s pulled %d ops, want %d", job, p.pulled, steadyOps)
	b.check(p.depthMax <= steadyDepth, "%s queue depth reached %d, above the loop depth %d", job, p.depthMax, steadyDepth)
	b.check(d.Raw.GCStats().PagesMoved > m.gc.PagesMoved, "%s moved no pages: cleaning never ran", job)
	tr.add(root, 0, job, "bench.round", t0, time.Now())
	b.digest(job, hashString(ssdDigest(d)))
	return nil
}
