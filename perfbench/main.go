// Command perfbench is the repository benchmark. It drives three named
// workloads through the public APIs of internal/experiments, internal/sim,
// internal/workload and internal/objcache, checks that the results are
// correct, and prints every metric by name and unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, measured by wrapping the
// calls the benchmark makes into each layer (see spans.go) and by profiles
// taken in the same run. README.md documents the workloads, the metrics
// and what each layer metric is predicted to move.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-chrome --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh ab -base ../parent -head . -workload sim-chrome
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	// Pin the collector's pacing to the default, whatever GOGC the
	// environment sets: collections fall inside the timed work, as they
	// would in any user of the packages, and peak memory stays comparable.
	debug.SetGCPercent(100)
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		os.Exit(runAB(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlSimChrome    = "sim-chrome"
	wlSimBaselines = "sim-baselines"
	wlObjcacheScan = "objcache-scan"
)

var workloadNames = []string{wlSimChrome, wlSimBaselines, wlObjcacheScan}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one of them; README.md gives each metric's
// meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_MIPS", "MIPS"},
	{"ipc_geomean", "IPC"},
	{"llc_mpki", "MPKI"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"hit_rate", "ratio"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A layer
// that does not run in a workload reports 0 for each of its metrics.
var perLayer = []metricDef{
	{"workload.record_s", "s"},
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"cpu.mem_accesses", "count"},
	{"cpu.load_latency_cyc", "cycles"},
	{"cpu.share", "ratio"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cache.share", "ratio"},
	{"llc.miss_ratio", "ratio"},
	{"llc.bypasses", "count"},
	{"llc.unused_evict_ratio", "ratio"},
	{"policy.victim_calls", "count"},
	{"policy.victim_ns", "ns"},
	{"policy.onhit_ns", "ns"},
	{"policy.onfill_ns", "ns"},
	{"policy.share", "ratio"},
	{"chrome.decisions", "count"},
	{"chrome.explore_ratio", "ratio"},
	{"chrome.qtable_updates", "count"},
	{"chrome.upksa", "1/ksa"},
	{"chrome.share", "ratio"},
	{"chrome.qtable_share", "ratio"},
	{"chrome.eq_share", "ratio"},
	{"prefetch.train_calls", "count"},
	{"prefetch.train_ns", "ns"},
	{"prefetch.useful_ratio", "ratio"},
	{"dram.reads", "count"},
	{"dram.busy_wait_cyc", "cycles"},
	{"dram.avg_latency_cyc", "cycles"},
	{"sim.share", "ratio"},
	{"sim.self_ns_per_access", "ns"},
	{"camat.obstructed_calls", "count"},
	{"camat.obstructed_ratio", "ratio"},
	{"experiments.cell_s_p50", "s"},
	{"experiments.cell_s_max", "s"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.allocs_per_kinstr", "1/kinstr"},
	{"objcache.get_ns_p50", "ns"},
	{"objcache.get_ns_p99", "ns"},
	{"objcache.set_ns_p50", "ns"},
	{"objcache.set_ns_p99", "ns"},
	{"objcache.admit_ratio", "ratio"},
	{"objcache.evictions", "count"},
	{"objcache.shard_skew", "ratio"},
	{"objcache.lock_wait_frac", "ratio"},
	{"objcache.chrome_share", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the run's manifest and trace dump
}

// outcome is what a workload run returns: its metric values by name, its
// operation accounting, and everything else the run writes to its dump.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// problems lists every failed correctness check; any entry makes the
	// run incorrect.
	problems []string
	// fingerprint identifies the run's deterministic results (sim
	// workloads); equal seeds must give equal fingerprints, traced or not.
	fingerprint string
	params      any
	phases      phaseTimes
	// notes are extra lines for the run's output, such as the traced
	// run's CPU shares.
	notes []string
	// dump holds the traced run's span aggregates, sampled spans and
	// profile attribution.
	dump map[string]any
}

// phaseTimes is the run's wall-time split.
type phaseTimes struct {
	SetupS   float64 `json:"setup_s"`
	WarmupS  float64 `json:"warmup_s"`
	MeasureS float64 `json:"measure_s"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	fs.StringVar(&o.out, "out", os.Getenv("PERFBENCH_OUT"), "directory for the run manifest and trace dump (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive, got %v\n", o.seconds)
		return 2
	}

	var oc outcome
	switch o.workload {
	case wlSimChrome, wlSimBaselines:
		oc = runSim(o, defaultSimParams(o.workload))
	case wlObjcacheScan:
		oc = runObjcache(o, defaultObjParams())
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %v)\n", o.workload, workloadNames)
		return 2
	}
	if !o.trace {
		oc.metrics["peak_rss_mb"] = peakRSSMB()
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: len(oc.problems) == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := oc.metrics[d.name]
		if !ok {
			res.Correct = false
			oc.problems = append(oc.problems, "metric "+d.name+" was not measured")
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
		oc.problems = append(oc.problems, "no operation was attempted")
	}

	man := newManifest(o, oc)
	for _, p := range oc.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	for _, n := range oc.notes {
		fmt.Fprintln(stdout, n)
	}
	if oc.fingerprint != "" {
		fmt.Fprintf(stdout, "fingerprint %s %s\n", o.workload, oc.fingerprint)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	manJSON, _ := json.Marshal(man) // manifest holds only marshalable values
	fmt.Fprintf(stdout, "manifest %s\n", manJSON)
	if o.out != "" {
		if err := writeDump(o, man, oc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing run dump:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeDump writes the manifest, the problems, and (traced runs) the span
// and profile dump to one JSON file per run under o.out.
func writeDump(o options, man manifest, oc outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	doc := map[string]any{"manifest": man, "metrics": oc.metrics, "problems": oc.problems}
	for k, v := range oc.dump {
		doc[k] = v
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// secondsSince is time.Since in seconds.
func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
