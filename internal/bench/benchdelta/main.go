// Command benchdelta is the CI bench-regression gate: it compares a
// freshly generated BENCH_perf.json against the committed baseline and
// fails (exit 1) if any hot-path kernel's fast/baseline time ratio or
// fast-path allocs/op regressed beyond the tolerance, printing a
// readable delta table either way.
//
// -fresh may be repeated: with several freshly measured files the gate
// takes each implementation's lowest ns/op across them and compares the
// ratio of those minima, so transient runner noise — which can only
// inflate a time — needs to hit every run to cause a false failure.
//
//	go run ./internal/bench/benchdelta -baseline BENCH_perf.json \
//	    -fresh /tmp/fresh1.json -fresh /tmp/fresh2.json -tol 0.20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdelta:", err)
		os.Exit(1)
	}
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_perf.json", "committed baseline BENCH_perf.json")
	var freshPaths []string
	flag.Func("fresh", "freshly generated BENCH_perf.json to gate (repeatable; each implementation's fastest run wins)",
		func(p string) error { freshPaths = append(freshPaths, p); return nil })
	tol := flag.Float64("tol", 0.20, "fractional regression tolerance")
	flag.Parse()
	if len(freshPaths) == 0 {
		return fmt.Errorf("need at least one -fresh")
	}

	read := func(path string) (bench.PerfReport, error) {
		f, err := os.Open(path)
		if err != nil {
			return bench.PerfReport{}, err
		}
		defer f.Close()
		return bench.ReadPerfJSON(f)
	}
	base, err := read(*baselinePath)
	if err != nil {
		return err
	}
	if len(base.Kernels) == 0 {
		return fmt.Errorf("baseline %s carries no kernel records", *baselinePath)
	}
	runs := make([][]bench.KernelRecord, 0, len(freshPaths))
	for _, p := range freshPaths {
		rep, err := read(p)
		if err != nil {
			return err
		}
		runs = append(runs, rep.Kernels)
	}
	fresh := bench.MergeKernelRuns(runs...)

	deltas, regressed := bench.CompareKernels(base.Kernels, fresh, *tol)
	fmt.Printf("kernel regression gate: %d kernels, tolerance %.0f%%\n", len(deltas), *tol*100)
	bench.PrintKernelDeltas(os.Stdout, deltas)
	if regressed {
		return fmt.Errorf("kernel performance regressed beyond %.0f%% (see table above)", *tol*100)
	}
	fmt.Println("no kernel regressions")
	return nil
}
