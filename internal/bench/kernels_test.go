package bench

import (
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/annotations"
)

// allocGatedKernels returns the kernels whose fast path is under the
// //hatt:noalloc contract, derived from KernelNoAlloc rather than a
// hand-maintained list, after verifying that every function the table
// names really carries the annotation in its package's source.
func allocGatedKernels(t *testing.T) []string {
	t.Helper()
	var kernels []string
	for kernel, ref := range KernelNoAlloc {
		pkgPath, fn, ok := strings.Cut(ref, ":")
		if !ok {
			t.Fatalf("KernelNoAlloc[%q] = %q: want \"import/path:Recv.Name\"", kernel, ref)
		}
		rel, ok := strings.CutPrefix(pkgPath, "repro/")
		if !ok {
			t.Fatalf("KernelNoAlloc[%q] names non-module package %q", kernel, pkgPath)
		}
		dir := filepath.Join("..", "..", filepath.FromSlash(rel))
		annotated, err := annotations.NoAllocFuncs(dir)
		if err != nil {
			t.Fatalf("scanning %s: %v", dir, err)
		}
		if !slices.Contains(annotated, fn) {
			t.Fatalf("KernelNoAlloc[%q] names %s:%s, which is not annotated %s (found: %v)",
				kernel, pkgPath, fn, annotations.Directive, annotated)
		}
		kernels = append(kernels, kernel)
	}
	sort.Strings(kernels)
	return kernels
}

// TestKernelSuiteBeforeAfter pins the acceptance bar: every kernel is
// measured as a baseline/fast pair, the annotation-gated kernels drop to
// at least 5× fewer allocations per op, the pruned BuildUnopt beats the
// exhaustive scan on the largest bundled molecule, the incremental hatt
// search beats the uncached O(N⁴) build on hubbard:6x6 and hubbard:8x8,
// the compact-key Majorana expansion and table-driven router beat their
// predecessors in both time and allocations, and in-place synthesis
// allocates fewer bytes than the copying Optimize chain. Two kernels are
// left to benchdelta's min-of-3 ratio gate: synthesis's wall-time gain
// (one gate-slice copy, ~10% of the op) and build_hatt_molecule14 (the
// dense branch, a ratio near 1) sit inside this host class's
// window-to-window noise, so a single in-process measurement does not
// gate them.
func TestKernelSuiteBeforeAfter(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts and kernel timing ratios are unreliable under -race")
	}
	gated := allocGatedKernels(t)
	ks := KernelSuite()
	byKernel := map[string]map[string]KernelRecord{}
	for _, k := range ks {
		if byKernel[k.Kernel] == nil {
			byKernel[k.Kernel] = map[string]KernelRecord{}
		}
		byKernel[k.Kernel][k.Impl] = k
	}
	for name, pair := range byKernel {
		if _, ok := pair["baseline"]; !ok {
			t.Fatalf("%s: missing baseline measurement", name)
		}
		if _, ok := pair["fast"]; !ok {
			t.Fatalf("%s: missing fast measurement", name)
		}
	}
	for _, name := range gated {
		pair, ok := byKernel[name]
		if !ok {
			t.Fatalf("kernel %s not measured", name)
		}
		base, fast := pair["baseline"], pair["fast"]
		if base.AllocsPerOp < 1 {
			t.Fatalf("%s: baseline unexpectedly allocation-free (%.2f/op)", name, base.AllocsPerOp)
		}
		if fast.AllocsPerOp > base.AllocsPerOp/5 {
			t.Fatalf("%s: fast path allocates %.2f/op vs baseline %.2f/op (want ≥5× fewer)",
				name, fast.AllocsPerOp, base.AllocsPerOp)
		}
	}
	unopt := byKernel["build_unopt_molecule14"]
	if unopt["fast"].NsPerOp >= unopt["baseline"].NsPerOp {
		t.Fatalf("build_unopt: prune is not a wall-time win (%.0f ns/op vs %.0f ns/op)",
			unopt["fast"].NsPerOp, unopt["baseline"].NsPerOp)
	}
	for _, name := range []string{"build_hatt_hubbard6x6", "build_hatt_hubbard8x8"} {
		hatt := byKernel[name]
		if hatt["fast"].NsPerOp >= hatt["baseline"].NsPerOp {
			t.Fatalf("%s: incremental search is not a wall-time win (%.0f ns/op vs %.0f ns/op)",
				name, hatt["fast"].NsPerOp, hatt["baseline"].NsPerOp)
		}
	}

	for _, name := range []string{"majorana_molecule14", "route_montreal_molecule12"} {
		pair := byKernel[name]
		if pair["fast"].NsPerOp >= pair["baseline"].NsPerOp || pair["fast"].AllocsPerOp >= pair["baseline"].AllocsPerOp {
			t.Fatalf("%s: fast path is not a win (%.0f ns/op, %.0f allocs/op vs %.0f ns/op, %.0f allocs/op)",
				name, pair["fast"].NsPerOp, pair["fast"].AllocsPerOp, pair["baseline"].NsPerOp, pair["baseline"].AllocsPerOp)
		}
	}
	synth := byKernel["synth_molecule14"]
	if synth["fast"].BytesPerOp >= synth["baseline"].BytesPerOp {
		t.Fatalf("synth_molecule14: in-place synthesis allocates %.0f B/op vs baseline %.0f B/op",
			synth["fast"].BytesPerOp, synth["baseline"].BytesPerOp)
	}

	var tab strings.Builder
	PrintKernels(&tab, ks)
	if !strings.Contains(tab.String(), "apply_pauli_14q") {
		t.Fatal("PrintKernels output incomplete")
	}
}
