package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// bench is one benchmark run: its flags, the correctness gate, the
// metric values, and the digests of the simulated statistics of every
// round.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	out      string

	attempted, failed int64
	values            map[string]float64
	// digests maps each distinct digest to the first phase that saw it.
	digests map[string]string
	heap    *heapSampler
	// spans is the traced phase's tracer, kept for writing out at the end.
	spans *tracer
}

func newBench(workload string, seed int64, budget time.Duration, traced bool, out string) *bench {
	return &bench{
		workload: workload, seed: seed, budget: budget, traced: traced, out: out,
		values:  map[string]float64{},
		digests: map[string]string{},
		heap:    startHeapSampler(),
	}
}

// attempt counts operations (simulated ops or service jobs) tried.
func (b *bench) attempt(n int64) { b.attempted += n }

// check is the correctness gate: a false condition counts one failure
// and is reported on standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// fail counts n failed operations without a message per operation.
func (b *bench) fail(n int64, what string) {
	if n > 0 {
		b.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %d %s\n", b.workload, n, what)
	}
}

func (b *bench) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.values[name] = v
}

// digest records one round's digest of simulated statistics.
func (b *bench) digest(phase, d string) {
	if _, ok := b.digests[d]; !ok {
		b.digests[d] = phase
	}
}

// phase runs round back to back until its share of the budget is spent
// and returns each round's host wall time. An untraced run spends the
// whole budget in one phase and runs at least min rounds; a traced run
// spends half untraced and half traced, at least one round each, so the
// two measure the same work. Past the minimum, another round starts
// only if one more of the mean round length still fits.
func (b *bench) phase(min int, round func() error) ([]float64, error) {
	budget := b.budget
	if b.traced {
		budget /= 2
		min = 1
	}
	start := time.Now()
	var walls []float64
	for {
		// Each round starts from a collected heap, so one round's garbage
		// counts against neither the next round's time nor its peak.
		runtime.GC()
		t0 := time.Now()
		if err := round(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		mean := time.Since(start) / time.Duration(len(walls))
		if len(walls) >= min && time.Since(start)+mean > budget {
			return walls, nil
		}
	}
}

// memDelta measures allocation and GC activity across fn.
func memDelta(fn func() error) (allocBytes uint64, gcCycles uint32, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC, err
}

// finish checks the digests, prints the metrics and the result line, and
// writes the traced run's spans.
func (b *bench) finish() error {
	peak := b.heap.stop()
	switch len(b.digests) {
	case 0:
		b.check(false, "no digest of simulated statistics was recorded")
	case 1:
		for d := range b.digests {
			fmt.Printf("digest: %s\n", d)
			if want := recordedDigests[b.workload][b.seed]; want != "" {
				b.check(d == want, "digest %s, recorded %s for seed %d", d, want, b.seed)
			}
		}
	default:
		b.check(false, "rounds disagree on the simulated statistics: %v", b.digests)
	}
	if b.spans != nil {
		path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
		if err := b.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
		b.set("bench.error_rate", ratio(float64(b.failed), float64(b.attempted)))
		// A per-layer metric of a layer the workload does not reach
		// reads 0.
		for _, d := range perLayer {
			if _, ok := b.values[d.name]; !ok {
				b.values[d.name] = 0
			}
		}
	} else {
		b.set("peak_heap_mb", float64(peak)/(1<<20))
	}
	if b.attempted < 1 {
		b.attempted = 1
		b.failed++
	}
	fmt.Printf("%s seed=%d traced=%v attempted=%d failed=%d\n", b.workload, b.seed, b.traced, b.attempted, b.failed)
	return printResult(defs, b.values, b.attempted, b.failed)
}

// ---- small statistics ----

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place). Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p99 is the job-latency tail of one round; the round needs at least
// ten samples beyond it.
func p99(b *bench, xs []float64) float64 {
	b.check(len(xs) >= 1000, "%d latency samples, need 1000 for ten beyond p99", len(xs))
	return quantile(xs, 0.99)
}

// hashString is the digest function: FNV-1a over the canonical text of
// a round's simulated statistics.
func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- peak heap ----

// heapSampler polls the heap in use (the spans holding objects, live or
// not yet swept) every few milliseconds and keeps the peak. It reads
// spans rather than objects because a span outlives the GC cycle that
// empties it, so a coarse poll still sees the peak. runtime/metrics
// reads do not stop the world.
type heapSampler struct {
	stopc       chan struct{}
	done        sync.WaitGroup
	peak        uint64
	goal, inuse uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64()+sample[1].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.done.Wait()
	return h.peak
}
