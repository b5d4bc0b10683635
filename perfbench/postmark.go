package main

import (
	"fmt"
	"strings"
	"time"

	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// The postmark workload is Table 5's shape: the Postmark generator,
// with frees, arrives open loop on the 4-element interleaved SWTF SSD,
// once on the default device and once on the informed one. Arrivals
// outpace the media, so the per-element backlog in sched does almost
// all the work. Its length is a fixed transaction count, never a time
// budget: the backlog, and with it the cost per op, grows with length.
const (
	// postmarkTransactions is the smallest Table 5 size whose informed /
	// default pages-moved ratio sits inside the paper's 0.25-0.50 band
	// for every seed tried; at 4,000 it reads ~0.55.
	postmarkTransactions = 6000
	// postmarkBatch ops make one latency sample ("job"), small enough
	// that one round yields well over 1,000 samples.
	postmarkBatch = 20
	// postmarkMinDepth is the queue depth a postmark replay must reach
	// (50 x its 4 elements) to show that the backlog is doing the work.
	postmarkMinDepth = 200
	// postmarkMinRounds pairs run in an untraced run (about 40 s).
	postmarkMinRounds = 4
	// postmarkSetups set-ups are timed per round, the last one kept: set-up
	// takes well under a millisecond, and three rounds give too few
	// samples for a steady median.
	postmarkSetups = 8
)

// postmarkDevice is Table 5's scaled device: interleaved mapping, SWTF,
// cleaning watermarks per the paper (experiments.Table5 builds the
// same one).
func postmarkDevice(informed bool) (*core.SSD, error) {
	d, err := core.Open("ssd",
		core.WithSSD(ssd.Config{
			Elements:      4,
			Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
			Overprovision: 0.12,
			Layout:        ssd.Interleaved,
			Scheduler:     sched.SWTF,
			CtrlOverhead:  10 * sim.Microsecond,
			GCLow:         0.05, GCCritical: 0.02,
		}),
		core.WithInformed(informed),
	)
	if err != nil {
		return nil, err
	}
	return d.(*core.SSD), nil
}

// postmarkConfig is Table 5's generator: 1,150 initial files of 4-64 KiB
// arriving at a 200 us mean against the whole device. Like
// experiments.Table5, it seeds the generator with seed + transactions,
// so a benchmark seed replays the trace Table 5 replays at that seed.
func postmarkConfig(transactions int, seed, capacity int64) workload.PostmarkConfig {
	return workload.PostmarkConfig{
		Transactions:     transactions,
		InitialFiles:     1150,
		FileSizeMin:      4 << 10,
		FileSizeMax:      64 << 10,
		CapacityBytes:    capacity,
		MeanInterarrival: 200 * sim.Microsecond,
		Seed:             seed + int64(transactions),
	}
}

// postmarkPair builds the default and the informed device, each with
// its own stream of the same Postmark trace.
func postmarkPair(transactions int, seed int64) ([2]*core.SSD, [2]trace.Stream, error) {
	var devs [2]*core.SSD
	var streams [2]trace.Stream
	for i, informed := range []bool{false, true} {
		d, err := postmarkDevice(informed)
		if err != nil {
			return devs, streams, err
		}
		s, err := workload.Postmark(postmarkConfig(transactions, seed, d.LogicalBytes()))
		if err != nil {
			return devs, streams, err
		}
		devs[i], streams[i] = d, s
	}
	return devs, streams, nil
}

// runPostmark runs at least postmarkMinRounds replay pairs, so the
// end-to-end medians never rest on one pair.
func runPostmark(b *bench) error { return b.runReplays(postmarkMinRounds, postmarkRound) }

// postmarkRound replays one default/informed pair on fresh devices.
func postmarkRound(b *bench, tr *tracer, st *replayStats) error {
	st.rounds++
	job := fmt.Sprintf("postmark-%d", st.rounds)
	root := tr.newID()
	t0 := time.Now()
	var devs [2]*core.SSD
	var streams [2]trace.Stream
	for i := 0; i < postmarkSetups; i++ {
		s0 := time.Now()
		var err error
		devs, streams, err = postmarkPair(postmarkTransactions, b.seed)
		if err != nil {
			return err
		}
		s1 := time.Now()
		st.setupS = append(st.setupS, s1.Sub(s0).Seconds())
		tr.leaf(root, job, "bench.setup", s0, s1)
	}

	var digest strings.Builder
	var moved [2]int64
	for i, d := range devs {
		replay := []string{"default", "informed"}[i]
		label := job + "/" + replay
		m := markOf(d)
		p := newProbe(streams[i], d, postmarkBatch, tr != nil)
		start := time.Now()
		err := d.Drive(p)
		end := time.Now()
		b.check(err == nil, "%s replay: %v", label, err)
		tr.leaf(root, label, "core.drive", start, end)
		b.replayed(tr, root, label, replay, d, m, p, start, end, st)
		b.check(p.depthMax >= postmarkMinDepth, "%s queue depth peaked at %d, want >= %d", label, p.depthMax, postmarkMinDepth)
		moved[i] = d.Raw.GCStats().PagesMoved
		digest.WriteString(ssdDigest(d))
	}
	rel := ratio(float64(moved[1]), float64(moved[0]))
	b.check(rel >= 0.25 && rel <= 0.50, "informed/default pages moved %.3f outside the paper's 0.25-0.50 band", rel)
	st.relMoved = append(st.relMoved, rel)
	tr.add(root, 0, job, "bench.round", t0, time.Now())
	b.digest(job, hashString(digest.String()))
	return nil
}
