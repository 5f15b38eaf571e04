package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/pkg/compiler"
)

// sameMajorana fails unless got and want hold the same terms in the same
// order, with bit-identical coefficients.
func sameMajorana(t *testing.T, label string, got, want *fermion.MajoranaHamiltonian) {
	t.Helper()
	if got.Modes != want.Modes || len(got.Terms) != len(want.Terms) {
		t.Fatalf("%s: %d modes/%d terms, want %d/%d", label, got.Modes, len(got.Terms), want.Modes, len(want.Terms))
	}
	for i := range want.Terms {
		g, w := got.Terms[i], want.Terms[i]
		if !reflect.DeepEqual(g.Indices, w.Indices) ||
			math.Float64bits(real(g.Coeff)) != math.Float64bits(real(w.Coeff)) ||
			math.Float64bits(imag(g.Coeff)) != math.Float64bits(imag(w.Coeff)) {
			t.Fatalf("%s: term %d = %v·%v, want %v·%v", label, i, g.Coeff, g.Indices, w.Coeff, w.Indices)
		}
	}
}

// randomFermionic builds a seeded Hamiltonian of 1–6-operator terms that
// mixes in repeated modes (a†_j a_j a†_j), exact negations that cancel
// to zero, and a†_j a†_j products that vanish.
func randomFermionic(r *rand.Rand, modes, terms int) *fermion.Hamiltonian {
	h := fermion.NewHamiltonian(modes)
	for i := 0; i < terms; i++ {
		ops := make([]fermion.Op, 1+r.Intn(6))
		for k := range ops {
			ops[k] = fermion.Op{Mode: r.Intn(modes), Dagger: r.Intn(2) == 0}
			if k > 0 && r.Intn(4) == 0 {
				ops[k].Mode = ops[k-1].Mode // repeated mode
			}
		}
		c := complex(r.NormFloat64(), r.NormFloat64())
		switch r.Intn(5) {
		case 0:
			h.AddHermitian(c, ops...)
		case 1:
			h.Add(c, ops...)
			h.Add(-c, ops...) // cancels below eps
		default:
			h.Add(c, ops...)
		}
	}
	j := r.Intn(modes)
	h.Add(1, fermion.Op{Mode: j, Dagger: true}, fermion.Op{Mode: j, Dagger: false}, fermion.Op{Mode: j, Dagger: true})
	h.Add(0.5, fermion.Op{Mode: j, Dagger: true}, fermion.Op{Mode: j, Dagger: true})
	return h
}

// TestMajoranaMatchesLegacy holds Hamiltonian.Majorana's compact-key
// accumulation to the fmt-keyed reference: same indices, coefficient
// bits and order, on random Hamiltonians (up to 70 modes, so indices
// pass 128) and on the bundled models.
func TestMajoranaMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		modes := 1 + r.Intn(70)
		if trial%4 == 0 {
			modes = 65 + r.Intn(6)
		}
		h := randomFermionic(r, modes, 1+r.Intn(40))
		for _, eps := range []float64{1e-12, 0.3} {
			sameMajorana(t, "random", h.Majorana(eps), legacyMajorana(h, eps))
		}
	}
	for _, spec := range []string{"h2", "hubbard:3x3", "neutrino:2x2", "molecule:14"} {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		sameMajorana(t, spec, h.Majorana(1e-12), legacyMajorana(h, 1e-12))
	}
	h := models.SyntheticMolecule("diff", 12, 7, 0.4)
	sameMajorana(t, "synthetic", h.Majorana(1e-12), legacyMajorana(h, 1e-12))
}

// randomRoutable is a seeded circuit of single-qubit gates and CNOTs
// between arbitrary pairs of n logical qubits.
func randomRoutable(r *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		a := r.Intn(n)
		if r.Intn(3) == 0 {
			c.Append(circuit.Rz(a, r.Float64()))
			continue
		}
		b := (a + 1 + r.Intn(n-1)) % n
		c.Append(circuit.CNOT(a, b))
	}
	return c
}

func sameRoute(t *testing.T, label string, c *circuit.Circuit, d *arch.Device) {
	t.Helper()
	got, err := arch.Route(c, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := legacyRoute(c, d)
	if err != nil {
		t.Fatalf("%s: legacy: %v", label, err)
	}
	if got.SwapsAdded != want.SwapsAdded || !reflect.DeepEqual(got.FinalLayout, want.FinalLayout) {
		t.Fatalf("%s: swaps %d layout %v, want %d %v", label, got.SwapsAdded, got.FinalLayout, want.SwapsAdded, want.FinalLayout)
	}
	if !reflect.DeepEqual(got.Circuit, want.Circuit) {
		t.Fatalf("%s: routed circuits differ (%d vs %d gates)", label, len(got.Circuit.Gates), len(want.Circuit.Gates))
	}
}

// TestRouteMatchesLegacy holds arch.Route's per-call BFS tables to the
// per-CNOT ShortestPath router: identical routed gates, SwapsAdded and
// FinalLayout on random circuits and on a molecule's Trotter circuit.
func TestRouteMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, spec := range []string{"montreal", "manhattan", "sycamore", "grid:3x3", "linear:9"} {
		d, err := arch.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			n := 2 + r.Intn(min(d.N, 16)-1)
			sameRoute(t, spec, randomRoutable(r, n, 20+r.Intn(300)), d)
		}
	}
	// On the largest device a spec may name, the ~100 distinct SWAP
	// sources outgrow the router's parent-table budget, so later sources
	// are searched into its scratch table.
	big, err := arch.Lookup("linear:65536")
	if err != nil {
		t.Fatal(err)
	}
	sameRoute(t, "linear:65536", randomRoutable(r, 100, 400), big)

	mol := models.SyntheticMolecule("diff", 12, 3, 0.4)
	hq := mapping.JordanWigner(mol.Modes).Apply(mol.Majorana(1e-12))
	logical := circuit.Compile(hq, circuit.OrderLexicographic)
	for _, spec := range []string{"montreal", "sycamore"} {
		d, err := arch.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		sameRoute(t, "molecule/"+spec, logical, d)
	}
}

// sameCircuit fails unless got and want have the same width and the
// same gates field for field, with bit-identical matrices.
func sameCircuit(t *testing.T, label string, got, want *circuit.Circuit) {
	t.Helper()
	if got.N != want.N || len(got.Gates) != len(want.Gates) {
		t.Fatalf("%s: %d qubits/%d gates, want %d/%d", label, got.N, len(got.Gates), want.N, len(want.Gates))
	}
	for i := range want.Gates {
		g, w := &got.Gates[i], &want.Gates[i]
		same := g.Kind == w.Kind && g.Q == w.Q && g.Q2 == w.Q2 && g.Label == w.Label
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				same = same && math.Float64bits(real(g.M[r][c])) == math.Float64bits(real(w.M[r][c])) &&
					math.Float64bits(imag(g.M[r][c])) == math.Float64bits(imag(w.M[r][c]))
			}
		}
		if !same {
			t.Fatalf("%s: gate %d = %+v, want %+v", label, i, *g, *w)
		}
	}
}

// TestRoutedPipelineMatchesCopyingChain holds Pipeline.Run's in-place
// synthesis and routing to the copying chain it replaced —
// SynthesizeTrotter, the copying Optimize, then the legacy router whose
// peephole also copies: bit-identical logical and routed circuits, the
// same SWAP count, final layout and reported metrics, on seeded
// molecules, h2, hubbard:3x3 and molecule:14 across three devices.
func TestRoutedPipelineMatchesCopyingChain(t *testing.T) {
	type job struct {
		name  string
		h     *fermion.Hamiltonian
		steps int
	}
	var jobs []job
	for seed := int64(1); seed <= 10; seed++ {
		modes := 8 + 2*int(seed%4)
		jobs = append(jobs, job{fmt.Sprintf("synthetic-%d", seed), models.SyntheticMolecule("diff", modes, seed, 0.4), 1 + int(seed%2)})
	}
	for _, spec := range []string{"h2", "hubbard:3x3", "molecule:14"} {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{spec, h, 1})
	}
	ctx := context.Background()
	for _, j := range jobs {
		mh := j.h.Majorana(1e-12)
		for _, spec := range []string{"montreal", "manhattan", "sycamore"} {
			label := j.name + "/" + spec
			opts := []compiler.Option{compiler.WithDevice(spec), compiler.WithTrotterSteps(j.steps)}
			rep, err := compiler.Pipeline{Hamiltonian: j.h, Options: opts}.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			o := compiler.NewOptions(opts...)
			logical := circuit.Optimize(circuit.SynthesizeTrotter(rep.Result.Mapping.Apply(mh), o.TrotterTime, o.TrotterSteps, o.TermOrder))
			sameCircuit(t, label+" logical", rep.Circuit, logical)
			d, err := arch.Lookup(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyRoute(logical, d)
			if err != nil {
				t.Fatalf("%s: legacy route: %v", label, err)
			}
			r := rep.Routed
			sameCircuit(t, label+" routed", r.Circuit, want.Circuit)
			if r.SwapsAdded != want.SwapsAdded || !reflect.DeepEqual(r.FinalLayout, want.FinalLayout) {
				t.Fatalf("%s: swaps %d layout %v, want %d %v", label, r.SwapsAdded, r.FinalLayout, want.SwapsAdded, want.FinalLayout)
			}
			if r.CNOTs != want.Circuit.CNOTCount() || r.Singles != want.Circuit.SingleCount() || r.Depth != want.Circuit.Depth() {
				t.Fatalf("%s: routed metrics %d/%d/%d disagree with the copying chain", label, r.CNOTs, r.Singles, r.Depth)
			}
		}
	}
}
