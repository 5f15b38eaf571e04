package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// KernelDelta compares one kernel's committed-baseline measurement
// against a fresh run. The quantity under the gate is the fast/baseline
// time ratio (lower is better): both implementations run on the same
// machine moments apart, so the ratio cancels host speed and is the
// noise-robust signal a CI runner can actually hold steady. Allocation
// counts are deterministic and compared directly.
type KernelDelta struct {
	Kernel string
	// Ratio is fast ns/op ÷ baseline ns/op for the same BENCH file.
	BaselineRatio float64
	FreshRatio    float64
	// Allocs is the fast implementation's allocs/op.
	BaselineAllocs float64
	FreshAllocs    float64
	Regressed      bool
	Reason         string
}

// allocSlack absorbs measurement jitter in the averaged allocation
// counter (measureKernel divides totals by iterations, so background
// runtime allocations can leak fractions into the per-op number).
const allocSlack = 0.5

// CompareKernels gates a fresh kernel sweep against the committed
// baseline: any kernel whose fast/baseline time ratio or fast-path
// allocs/op regresses by more than tol (fractional, e.g. 0.20) fails,
// as does a kernel that disappeared from the fresh run. Returns the
// per-kernel deltas (sorted by kernel) and whether anything regressed.
func CompareKernels(baseline, fresh []KernelRecord, tol float64) ([]KernelDelta, bool) {
	bi, fi := indexKernels(baseline), indexKernels(fresh)

	var names []string
	for k, p := range bi {
		if p.base != nil && p.fast != nil {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	var out []KernelDelta
	anyRegressed := false
	for _, k := range names {
		bp, fp := bi[k], fi[k]
		d := KernelDelta{
			Kernel:         k,
			BaselineRatio:  bp.fast.NsPerOp / bp.base.NsPerOp,
			BaselineAllocs: bp.fast.AllocsPerOp,
		}
		switch {
		case fp.base == nil || fp.fast == nil:
			d.Regressed = true
			d.Reason = "kernel missing from fresh run"
		default:
			d.FreshRatio = fp.fast.NsPerOp / fp.base.NsPerOp
			d.FreshAllocs = fp.fast.AllocsPerOp
			if d.FreshRatio > d.BaselineRatio*(1+tol) {
				d.Regressed = true
				d.Reason = fmt.Sprintf("time ratio %.4f exceeds baseline %.4f by more than %.0f%%",
					d.FreshRatio, d.BaselineRatio, tol*100)
			}
			if d.FreshAllocs > d.BaselineAllocs*(1+tol)+allocSlack {
				d.Regressed = true
				if d.Reason != "" {
					d.Reason += "; "
				}
				d.Reason += fmt.Sprintf("allocs/op %.2f exceeds baseline %.2f",
					d.FreshAllocs, d.BaselineAllocs)
			}
		}
		anyRegressed = anyRegressed || d.Regressed
		out = append(out, d)
	}
	// Kernels measured fresh but absent from the committed baseline have
	// no regression coverage — fail loudly so adding a kernel forces the
	// baseline to be regenerated in the same change.
	var extra []string
	for k, p := range fi {
		if _, known := bi[k]; !known && p.base != nil && p.fast != nil {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		p := fi[k]
		out = append(out, KernelDelta{
			Kernel:      k,
			FreshRatio:  p.fast.NsPerOp / p.base.NsPerOp,
			FreshAllocs: p.fast.AllocsPerOp,
			Regressed:   true,
			Reason:      "kernel missing from committed baseline (regenerate BENCH_perf.json)",
		})
		anyRegressed = true
	}
	return out, anyRegressed
}

// kernelPairIndex groups a kernel sweep's records by kernel name into
// baseline/fast pairs — the matching logic CompareKernels and
// MergeKernelRuns share.
type kernelPairIndex struct{ base, fast *KernelRecord }

func indexKernels(recs []KernelRecord) map[string]kernelPairIndex {
	m := make(map[string]kernelPairIndex)
	for i := range recs {
		r := &recs[i]
		p := m[r.Kernel]
		switch r.Impl {
		case "baseline":
			p.base = r
		case "fast":
			p.fast = r
		}
		m[r.Kernel] = p
	}
	return m
}

// MergeKernelRuns combines several fresh kernel sweeps into one by
// keeping, per kernel and implementation, the record with the lowest
// ns/op; the gate then divides those minima. Host noise only ever
// inflates a time, so each implementation's minimum is its honest
// estimate. Keeping instead the sweep with the best fast/baseline ratio
// would pick the sweep whose baseline was slowed the most. The
// committed baseline and benchdelta's fresh side both use this merge.
func MergeKernelRuns(runs ...[]KernelRecord) []KernelRecord {
	best := make(map[string]kernelPairIndex)
	for _, run := range runs {
		for k, p := range indexKernels(run) {
			if p.base == nil || p.fast == nil || p.base.NsPerOp <= 0 {
				continue
			}
			cur := best[k]
			if cur.base == nil || p.base.NsPerOp < cur.base.NsPerOp {
				cur.base = p.base
			}
			if cur.fast == nil || p.fast.NsPerOp < cur.fast.NsPerOp {
				cur.fast = p.fast
			}
			best[k] = cur
		}
	}
	order := make([]string, 0, len(best))
	for k := range best {
		order = append(order, k)
	}
	sort.Strings(order)
	out := make([]KernelRecord, 0, 2*len(order))
	for _, k := range order {
		out = append(out, *best[k].base, *best[k].fast)
	}
	return out
}

// ReadPerfJSON parses a BENCH_perf.json artifact.
func ReadPerfJSON(r io.Reader) (PerfReport, error) {
	var rep PerfReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return PerfReport{}, fmt.Errorf("bench: parsing perf JSON: %w", err)
	}
	return rep, nil
}

// PrintKernelDeltas renders the regression gate's readable delta table.
func PrintKernelDeltas(w io.Writer, deltas []KernelDelta) {
	fmt.Fprintf(w, "%-26s %14s %14s %9s %12s %12s  %s\n",
		"Kernel", "ratio(base)", "ratio(fresh)", "Δratio", "allocs(base)", "allocs(fresh)", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED: " + d.Reason
		}
		change := 0.0
		if d.BaselineRatio > 0 {
			change = (d.FreshRatio - d.BaselineRatio) / d.BaselineRatio * 100
		}
		fmt.Fprintf(w, "%-26s %14.4f %14.4f %+8.1f%% %12.2f %12.2f  %s\n",
			d.Kernel, d.BaselineRatio, d.FreshRatio, change,
			d.BaselineAllocs, d.FreshAllocs, verdict)
	}
}
