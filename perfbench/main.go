// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator from the outside — timing calls into
// the public functions of core, workload, ssd, simsvc and campaign only —
// checks that every simulated output is correct, and prints its metrics.
//
//	bash perfbench/run.sh --workload postmark --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same work once untraced and once traced (spans at every layer
// boundary plus a CPU profile) and prints the per-layer metrics. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Seeds. defaultSeed is the one quoted in results; heldOutSeed is kept
// back to confirm a claimed gain on inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// recordedDigests pins the simulated statistics of each workload at the
// two documented seeds. A speed-only change must leave them untouched;
// a mismatch fails the run's correctness gate.
var recordedDigests = map[string]map[int64]string{
	"postmark": {defaultSeed: "69e2c625cbc0492a", heldOutSeed: "80716cfa451d81d0"},
	"steady":   {defaultSeed: "8db8c60045c7b78a", heldOutSeed: "97411c0c9ca85547"},
	"service":  {defaultSeed: "013ea4b706297811", heldOutSeed: "1bb77ce64a820ade"},
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*bench) error{
	"postmark": runPostmark,
	"steady":   runSteady,
	"service":  runService,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: postmark, steady or service")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 40, "host seconds to measure for")
		traced  = flag.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory the span file and CPU profile are written to")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	printMachine()
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMachine reports what the numbers were measured on.
func printMachine() {
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with tracing off (README.md defines each per workload).
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p99", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. A metric that does not apply
// to a workload reads 0 on it.
var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"core.drive_ns_per_op", "ns"},
	{"core.precondition_s", "s"},
	{"core.metrics_us", "us"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"sched.queue_depth_mean", "count"},
	{"sched.queue_depth_max", "count"},
	{"ftl.pages_moved_per_write", "ratio"},
	{"ssd.write_amp", "ratio"},
	{"ftl.rel_pages_moved", "ratio"},
	{"simsvc.run_ms_p50.ssd", "ms"},
	{"simsvc.run_ms_p50.hdd", "ms"},
	{"simsvc.run_ms_p50.mems", "ms"},
	{"simsvc.run_ms_p50.raid", "ms"},
	{"simsvc.run_ms_p50.osd", "ms"},
	{"simsvc.queue_wait_ms_p50", "ms"},
	{"simsvc.run_ms_p50", "ms"},
	{"simsvc.overhead_ms_p50", "ms"},
	{"simsvc.hit_ms_p50", "ms"},
	{"simsvc.cache_hit_ratio", "ratio"},
	{"simsvc.coalesced", "count"},
	{"campaign.ms_p50", "ms"},
	{"campaign.sims_per_distinct_cell", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.error_rate", "ratio"},
}

// cpuShareLayers maps each CPU-share metric to the function-name
// prefixes whose self samples it counts.
var cpuShareLayers = []struct {
	metric   string
	prefixes []string
}{
	{"workload.cpu_share", []string{"ossd/internal/workload.", "ossd/internal/fsmodel.", "ossd/internal/trace."}},
	{"core.cpu_share", []string{"ossd/internal/core."}},
	{"sim.cpu_share", []string{"ossd/internal/sim."}},
	{"sched.cpu_share", []string{"ossd/internal/sched."}},
	{"ssd.cpu_share", []string{"ossd/internal/ssd."}},
	{"ftl.cpu_share", []string{"ossd/internal/ftl."}},
	{"flash.cpu_share", []string{"ossd/internal/flash."}},
	{"hdd.cpu_share", []string{"ossd/internal/hdd.", "ossd/internal/mems.", "ossd/internal/raid."}},
	{"osd.cpu_share", []string{"ossd/internal/osd."}},
	{"stats.cpu_share", []string{"ossd/internal/stats."}},
	{"simsvc.cpu_share", []string{"ossd/internal/simsvc.", "ossd/internal/campaign.", "ossd/internal/runner."}},
	{"net.cpu_share", []string{"net/http.", "encoding/json.", "net.", "bufio.", "internal/poll.", "syscall."}},
	{"runtime.cpu_share", []string{"runtime.", "internal/runtime/"}},
	{"bench.cpu_share", []string{"main."}},
}

func init() {
	for _, l := range cpuShareLayers {
		perLayer = append(perLayer, metricDef{l.metric, "ratio"})
	}
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of defs by name and unit, then the
// JSON result line. A metric the workload did not set is a bug.
func printResult(defs []metricDef, values map[string]float64, attempted, failed int64) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
