package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its call into the layer. Spans of one job share Job;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggregate stands in for per-operation spans where those would number
// in the millions: the count, total and maximum of one boundary's
// durations.
type aggregate struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// tracer keeps spans and aggregates in memory until the run ends. A nil
// *tracer records nothing, which is how untraced rounds run the same
// code. It is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	aggs   map[string]*aggregate
	nextID int64
}

func newTracer() *tracer { return &tracer{aggs: map[string]*aggregate{}} }

// newID reserves a span ID, so a parent's ID can be handed to its
// children before the parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent int64, job, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// leaf records a finished span that has no children.
func (t *tracer) leaf(parent int64, job, name string, start, end time.Time) {
	t.add(t.newID(), parent, job, name, start, end)
}

// aggregate folds count durations totalling total (longest max) into
// the named boundary.
func (t *tracer) aggregate(name string, count int64, total, max time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &aggregate{Name: name}
		t.aggs[name] = a
	}
	a.Count += count
	a.TotalNs += int64(total)
	if int64(max) > a.MaxNs {
		a.MaxNs = int64(max)
	}
}

// write saves the spans and aggregates as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Spans      []span       `json:"spans"`
		Aggregates []*aggregate `json:"aggregates"`
	}{Spans: t.spans}
	for _, a := range t.aggs {
		doc.Aggregates = append(doc.Aggregates, a)
	}
	sort.Slice(doc.Aggregates, func(i, j int) bool { return doc.Aggregates[i].Name < doc.Aggregates[j].Name })
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPhase runs fn with a fresh tracer under a CPU profile, keeps the
// tracer for writing out, and sets every cpu_share metric from the
// profile's self samples.
func (b *bench) tracedPhase(fn func(tr *tracer) error) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.out, fmt.Sprintf("cpu-%s-seed%d.pprof", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	b.spans = newTracer()
	runErr := fn(b.spans)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	shares, err := cpuShares(path)
	if err != nil {
		return err
	}
	for _, l := range cpuShareLayers {
		b.set(l.metric, shares[l.metric])
	}
	return nil
}

// cpuShares reads a CPU profile back with `go tool pprof` and returns,
// per cpuShareLayers entry, its share of all self samples.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	// Rows read "flat flat% sum% cum cum% function"; the header row and
	// the preamble do not parse as a count.
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		total += flat
		for _, l := range cpuShareLayers {
			if hasAnyPrefix(fn, l.prefixes) {
				shares[l.metric] += flat
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", path)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
