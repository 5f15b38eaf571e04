// Command hattbench is the repository benchmark: three seeded, closed-loop
// workloads driven through the public entry points — compiler.Compile,
// compiler.Pipeline.Run, and the hattd HTTP API served in-process — with
// every output checked by the benchmark's own code.
//
//	bash hattbench/run.sh --workload lattice-search --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run times each layer's public
// calls from outside the program and reports the per-layer breakdown.
// See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, every workload.
// Times are the process's CPU times, less the share the hypervisor stole
// (see stealMeter): on a shared VM the wall clock carries the host's
// contention, which swung wall-clock figures by more than the gate's
// bound from one run to the next. The wall-clock figures are printed too
// (wallNames), outside the gate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_op_ms", "ms"},
	{"ok_rate", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"pauli_weight_sum", "count"},
}

// wallNames are the wall-clock figures of the measured phase: per-layer
// metrics in a --trace 1 run (from ops without spans), run facts in a
// --trace 0 run.
var wallNames = []string{"throughput_ops", "latency_p50_ms", "latency_tail_ms", "hit_p50_ms", "miss_p50_ms"}

// perLayer lists the metrics a --trace 1 run prints, every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"throughput_ops", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"fermion.majorana_ms", "ms"},
	{"fermion.majorana_alloc_mb", "MiB"},
	{"fermion.majorana_terms", "count"},
	{"fermion.share", "ratio"},
	{"core.search_ms", "ms"},
	{"core.search_alloc_mb", "MiB"},
	{"core.share", "ratio"},
	{"mapping.apply_ms", "ms"},
	{"mapping.verify_ms", "ms"},
	{"mapping.qubit_terms", "count"},
	{"mapping.share", "ratio"},
	{"circuit.synth_ms", "ms"},
	{"circuit.optimize_ms", "ms"},
	{"circuit.alloc_mb", "MiB"},
	{"circuit.gates_in", "count"},
	{"circuit.gates_out", "count"},
	{"circuit.share", "ratio"},
	{"circuit.cnot_sum", "count"},
	{"circuit.depth_sum", "count"},
	{"arch.route_ms", "ms"},
	{"arch.swaps", "count"},
	{"arch.alloc_mb", "MiB"},
	{"arch.share", "ratio"},
	{"arch.routed_cnot_sum", "count"},
	{"compiler.residual_ms", "ms"},
	{"compiler.share", "ratio"},
	{"models.build_ms", "ms"},
	{"models.share", "ratio"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.hit_share", "ratio"},
	{"store.share", "ratio"},
	{"service.request_ms", "ms"},
	{"service.unattributed_ms", "ms"},
	{"service.share", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// run is the state of one benchmark invocation.
type run struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // scratch space inside the checkout

	attempted, failed int
	failures          []string

	e2e   map[string]float64 // end-to-end values by name
	layer map[string]float64 // per-layer values by name
	info  map[string]any     // run facts printed beside the metrics
	rec   *recorder          // nil unless tracing
}

// fail counts one failed op and lists it with its error on stderr.
func (r *run) fail(what string, err error) {
	r.failed++
	msg := fmt.Sprintf("%s: %v", what, err)
	if len(r.failures) < 50 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "hattbench: FAIL", msg)
}

// warmup is how long each workload runs untimed ops before measuring,
// so heap growth and first-touch page faults are behind it.
const warmup = 2 * time.Second

// setupRuns is how many times each workload sets up; setup_s is the
// median.
const setupRuns = 21

// repeatSetup runs setup n times and returns the median CPU time in
// seconds the process spent on one, less the share stolen meanwhile (see
// stealMeter); the CPU and wall times go in the run facts. Between runs,
// undo (untimed; nil for none) discards the previous set-up; the last one
// is the state the workload keeps.
func (r *run) repeatSetup(n int, setup func() error, undo func()) (float64, error) {
	var cpu, wall []float64
	steal := startSteal()
	for i := 0; i < n; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		t0, c0 := time.Now(), cpuMS()
		if err := setup(); err != nil {
			return 0, err
		}
		cpu = append(cpu, (cpuMS()-c0)/1000)
		wall = append(wall, time.Since(t0).Seconds())
	}
	stolen := steal.share()
	r.info["setup_cpu_s"] = cpu
	r.info["setup_wall_s"] = wall
	r.info["setup_steal_share"] = stolen
	return median(cpu) * (1 - stolen), nil
}

// phaseMetrics fills, from a measured phase of span seconds, the CPU time
// per op, scaled by 1 − stolen (the share of the machine's CPU time
// stolen during the phase, see stealMeter), and the wall-clock figures
// shared by every workload, each the median over the phase's slices (see
// windows). With one caller, throughput is ops per second of time inside
// the program's calls; with concurrent callers, ops per second of wall
// time.
func (r *run) phaseMetrics(ts []timed, span, stolen float64, concurrent bool) {
	ws := split(ts, span)
	r.layer["throughput_ops"] = windowed(ws, func(w []timed) float64 {
		if !concurrent {
			return float64(len(w)) / (sum(lats(w)) / 1000)
		}
		return float64(len(w)) / (span / float64(len(ws)))
	})
	r.layer["latency_p50_ms"] = windowed(ws, func(w []timed) float64 { return median(lats(w)) })
	r.layer["latency_tail_ms"] = windowed(ws, func(w []timed) float64 { v, _ := tail(lats(w)); return v })
	r.info["tail_percentile"] = windowed(ws, func(w []timed) float64 { _, p := tail(lats(w)); return p })
	r.info["latency_samples"] = len(ts)
	r.info["windows"] = len(ws)
	cpu := cpuPerOp(ts, span, concurrent)
	r.info["cpu_per_op_raw_ms"] = cpu
	r.info["steal_share"] = stolen
	r.e2e["cpu_per_op_ms"] = cpu * (1 - stolen)
}

// p50 is the median over ts's slices of their median latency.
func p50(ts []timed, span float64) float64 {
	return windowed(split(ts, span), func(w []timed) float64 { return median(lats(w)) })
}

var workloads = map[string]func(*run) error{
	"lattice-search":  runLattice,
	"molecule-routed": runMolecule,
	"service-mixed":   runService,
}

func main() {
	workload := flag.String("workload", "", "lattice-search | molecule-routed | service-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory (store, trace files)")
	commit := flag.String("commit", "unknown", "source revision measured, printed with the host facts")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hattbench: usage: --workload lattice-search|molecule-routed|service-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		ctx:      context.Background(),
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workdir:  *workdir,
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
		info: map[string]any{
			"workload":   *workload,
			"seed":       *seed,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     *commit,
		},
	}
	if r.trace {
		r.rec = newRecorder(*workload != "service-mixed")
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hattbench:", err)
		os.Exit(1)
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "hattbench:", err)
		os.Exit(1)
	}
	if r.rec != nil {
		path := filepath.Join(r.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "hattbench: writing spans:", err)
			os.Exit(1)
		}
		r.info["trace_file"] = path
		r.layer["trace.spans"] = float64(len(r.rec.spans))
	}
	if len(r.failures) > 0 {
		r.info["failures"] = r.failures
	}
	if r.attempted > 0 {
		r.e2e["ok_rate"] = float64(r.attempted-r.failed) / float64(r.attempted)
	}

	defs, vals := endToEnd, r.e2e
	if r.trace {
		defs, vals = perLayer, r.layer
	} else {
		wall := make(map[string]float64)
		for _, name := range wallNames {
			wall[name] = r.layer[name]
		}
		r.info["wall"] = wall
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	info, _ := json.Marshal(map[string]any{"run": r.info})
	fmt.Println(string(info))
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}
