package circuit

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
)

// applyGate is a minimal reference statevector applier for tests only
// (the full simulator lives in internal/sim and is tested against this
// package's circuits as well).
func applyGate(psi []complex128, g Gate, n int) {
	switch g.Kind {
	case KindSingle:
		stride := 1 << uint(g.Q)
		for base := 0; base < len(psi); base += stride * 2 {
			for i := base; i < base+stride; i++ {
				a, b := psi[i], psi[i+stride]
				psi[i] = g.M[0][0]*a + g.M[0][1]*b
				psi[i+stride] = g.M[1][0]*a + g.M[1][1]*b
			}
		}
	case KindCNOT:
		cm := 1 << uint(g.Q2)
		tm := 1 << uint(g.Q)
		for i := range psi {
			if i&cm != 0 && i&tm == 0 {
				psi[i], psi[i|tm] = psi[i|tm], psi[i]
			}
		}
	}
}

func runCircuit(c *Circuit, psi []complex128) {
	for _, g := range c.Gates {
		applyGate(psi, g, c.N)
	}
}

// applyPauli computes P|ψ⟩ directly from the string action.
func applyPauli(p pauli.String, psi []complex128) []complex128 {
	out := make([]complex128, len(psi))
	coeff := p.LetterCoeff()
	var flip int
	for _, q := range p.Support() {
		if l := p.Letter(q); l == pauli.X || l == pauli.Y {
			flip |= 1 << uint(q)
		}
	}
	for i, a := range psi {
		amp := coeff * a
		for _, q := range p.Support() {
			bit := i >> uint(q) & 1
			switch p.Letter(q) {
			case pauli.Z:
				if bit == 1 {
					amp = -amp
				}
			case pauli.Y:
				if bit == 0 {
					amp *= complex(0, 1)
				} else {
					amp *= complex(0, -1)
				}
			}
		}
		out[i^flip] = amp
	}
	return out
}

func randomState(r *rand.Rand, n int) []complex128 {
	psi := make([]complex128, 1<<uint(n))
	norm := 0.0
	for i := range psi {
		psi[i] = complex(r.NormFloat64(), r.NormFloat64())
		norm += real(psi[i])*real(psi[i]) + imag(psi[i])*imag(psi[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range psi {
		psi[i] *= s
	}
	return psi
}

func statesClose(a, b []complex128, tol float64) bool {
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// expectEvolution computes exp(−i·θ/2·P)|ψ⟩ = cos(θ/2)|ψ⟩ − i·sin(θ/2)·P|ψ⟩.
func expectEvolution(p pauli.String, theta float64, psi []complex128) []complex128 {
	pp := applyPauli(p, psi)
	out := make([]complex128, len(psi))
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	for i := range psi {
		out[i] = c*psi[i] + s*pp[i]
	}
	return out
}

func TestEvolutionMatchesExactExponential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := []string{"Z", "X", "Y", "ZZ", "XY", "YX", "XYZ", "ZIZ", "YYXX", "IXIY"}
	for _, sstr := range cases {
		p := pauli.MustParse(sstr)
		theta := 0.37
		c := New(p.N())
		AppendEvolution(c, p, theta)
		psi := randomState(r, p.N())
		want := expectEvolution(p, theta, psi)
		got := make([]complex128, len(psi))
		copy(got, psi)
		runCircuit(c, got)
		if !statesClose(got, want, 1e-9) {
			t.Errorf("evolution circuit for %s wrong", sstr)
		}
	}
}

func TestEvolutionBalancedMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, sstr := range []string{"XXXX", "ZYXZ", "XYZIX", "ZZ"} {
		p := pauli.MustParse(sstr)
		theta := -0.81
		c := New(p.N())
		appendEvolutionBalanced(c, p, theta)
		psi := randomState(r, p.N())
		want := expectEvolution(p, theta, psi)
		got := make([]complex128, len(psi))
		copy(got, psi)
		runCircuit(c, got)
		if !statesClose(got, want, 1e-9) {
			t.Errorf("balanced evolution for %s wrong", sstr)
		}
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	h := pauli.NewHamiltonian(4)
	h.Add(0.5, pauli.MustParse("XXII"))
	h.Add(0.3, pauli.MustParse("XXZI"))
	h.Add(-0.2, pauli.MustParse("IYZX"))
	h.Add(0.7, pauli.MustParse("IYZZ"))
	raw := SynthesizeTrotter(h, 1.0, 1, OrderLexicographic)
	opt := Optimize(raw)
	if opt.CNOTCount() > raw.CNOTCount() {
		t.Errorf("optimizer increased CNOTs: %d -> %d", raw.CNOTCount(), opt.CNOTCount())
	}
	psi := randomState(r, 4)
	a := make([]complex128, len(psi))
	copy(a, psi)
	runCircuit(raw, a)
	b := make([]complex128, len(psi))
	copy(b, psi)
	runCircuit(opt, b)
	// Allow a global phase between the two.
	var phase complex128
	for i := range a {
		if cmplx.Abs(a[i]) > 1e-8 {
			phase = b[i] / a[i]
			break
		}
	}
	if math.Abs(cmplx.Abs(phase)-1) > 1e-9 {
		t.Fatalf("global phase magnitude %v", cmplx.Abs(phase))
	}
	for i := range a {
		if cmplx.Abs(a[i]*phase-b[i]) > 1e-9 {
			t.Fatalf("optimized circuit changed semantics at amplitude %d", i)
		}
	}
}

// sameGates fails unless got and want hold the same gates field for
// field, with bit-identical matrices.
func sameGates(t *testing.T, label string, got, want []Gate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d gates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.Kind == w.Kind && g.Q == w.Q && g.Q2 == w.Q2 && g.Label == w.Label
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				same = same && math.Float64bits(real(g.M[r][c])) == math.Float64bits(real(w.M[r][c])) &&
					math.Float64bits(imag(g.M[r][c])) == math.Float64bits(imag(w.M[r][c]))
			}
		}
		if !same {
			t.Fatalf("%s: gate %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestOptimizeLeavesInputUntouched: Optimize runs the pass on a copy, so
// the input's gates survive bit for bit, and OptimizeInPlace on the
// caller's own circuit yields the same gates as Optimize's copy, as
// does Compile against the copying chain.
func TestOptimizeLeavesInputUntouched(t *testing.T) {
	mol := models.SyntheticMolecule("opt", 8, 2, 0.4)
	hq := mapping.JordanWigner(mol.Modes).Apply(mol.Majorana(1e-12))
	raw := SynthesizeTrotter(hq, 0.7, 2, OrderLexicographic)
	before := append([]Gate(nil), raw.Gates...)
	opt := Optimize(raw)
	sameGates(t, "Optimize input", raw.Gates, before)
	if len(opt.Gates) >= len(raw.Gates) {
		t.Fatalf("peephole removed nothing (%d gates)", len(raw.Gates))
	}
	inPlace := OptimizeInPlace(raw)
	if inPlace != raw {
		t.Fatal("OptimizeInPlace returned a different circuit")
	}
	sameGates(t, "OptimizeInPlace", inPlace.Gates, opt.Gates)
	sameGates(t, "Compile", Compile(hq, OrderLexicographic).Gates, Optimize(SynthesizeTrotter(hq, 1, 1, OrderLexicographic)).Gates)
}

// TestTrotterGatesBoundsSynthesis: TrotterGates is the room
// SynthesizeTrotter allocates, bounds what it emits, and saturates
// instead of overflowing on step counts no circuit could hold.
func TestTrotterGatesBoundsSynthesis(t *testing.T) {
	h := pauli.NewHamiltonian(4)
	h.Add(0.5, pauli.MustParse("XXII"))
	h.Add(0.3, pauli.MustParse("IYZX"))
	h.Add(0.2, pauli.MustParse("IIII")) // identity: no gates
	if got := TrotterGates(h, 1); got != 7+11 {
		t.Fatalf("TrotterGates(1) = %d, want 18", got)
	}
	for _, steps := range []int{-1, 0, 1, 3} {
		c := SynthesizeTrotter(h, 1, steps, OrderNatural)
		if n := TrotterGates(h, steps); cap(c.Gates) != n || len(c.Gates) > n {
			t.Errorf("%d steps: %d gates in cap %d, TrotterGates %d", steps, len(c.Gates), cap(c.Gates), n)
		}
	}
	if got := TrotterGates(h, math.MaxInt/10); got != math.MaxInt {
		t.Errorf("TrotterGates(MaxInt/10) = %d, want saturation at MaxInt", got)
	}
}

func TestOptimizeCancelsCNOTPairs(t *testing.T) {
	c := New(2)
	c.Append(CNOT(0, 1), CNOT(0, 1))
	opt := Optimize(c)
	if len(opt.Gates) != 0 {
		t.Errorf("CX·CX not cancelled: %s", opt)
	}
	// With an interposed gate on another qubit the pair still cancels.
	c2 := New(3)
	c2.Append(CNOT(0, 1), H(2), CNOT(0, 1))
	opt2 := Optimize(c2)
	if opt2.CNOTCount() != 0 || opt2.SingleCount() != 1 {
		t.Errorf("interposed cancel failed: %s", opt2)
	}
	// A gate touching one of the pair's qubits blocks cancellation.
	c3 := New(2)
	c3.Append(CNOT(0, 1), H(1), CNOT(0, 1))
	opt3 := Optimize(c3)
	if opt3.CNOTCount() != 2 {
		t.Errorf("blocked pair wrongly cancelled: %s", opt3)
	}
}

func TestOptimizeMergesSingles(t *testing.T) {
	c := New(1)
	c.Append(H(0), H(0))
	if opt := Optimize(c); len(opt.Gates) != 0 {
		t.Errorf("H·H not removed: %s", opt)
	}
	c2 := New(1)
	c2.Append(H(0), Rz(0, 0.5), H(0))
	opt2 := Optimize(c2)
	if opt2.SingleCount() != 1 {
		t.Errorf("merge chain = %s, want single U3", opt2)
	}
}

func TestDepthAndCounts(t *testing.T) {
	c := New(3)
	c.Append(H(0), H(1), CNOT(0, 1), Rz(1, 0.3), CNOT(0, 1), H(2))
	if got := c.CNOTCount(); got != 2 {
		t.Errorf("CNOTs = %d", got)
	}
	if got := c.SingleCount(); got != 4 {
		t.Errorf("singles = %d", got)
	}
	// Depth: q0/q1 path: H(1), CX(2), RZ(3), CX(4); H(2) parallel at 1.
	if got := c.Depth(); got != 4 {
		t.Errorf("depth = %d, want 4", got)
	}
	st := c.Stats()
	if st.CNOTs != 2 || st.Singles != 4 || st.Depth != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOrderTermsModes(t *testing.T) {
	h := pauli.NewHamiltonian(3)
	h.Add(0.1, pauli.MustParse("XXI"))
	h.Add(0.9, pauli.MustParse("IZZ"))
	h.Add(0.5, pauli.MustParse("XXZ"))
	h.Add(0.2, pauli.Identity(3)) // dropped
	for _, ord := range []TermOrder{OrderNatural, OrderLexicographic, OrderGreedyOverlap} {
		ts := OrderTerms(h, ord)
		if len(ts) != 3 {
			t.Fatalf("order %d: %d terms, want 3", ord, len(ts))
		}
	}
	// Greedy overlap should chain XXZ next to XXI or IZZ (shared support),
	// starting from the largest coefficient IZZ.
	ts := OrderTerms(h, OrderGreedyOverlap)
	if ts[0].S.Compact() != "Z1Z0" {
		t.Errorf("greedy start = %s, want Z1Z0", ts[0].S.Compact())
	}
}

// TestOrderLexicographicMatchesKeyComparator holds the decorated sort
// to the comparator it replaced, which rebuilt both Key strings on every
// comparison.
func TestOrderLexicographicMatchesKeyComparator(t *testing.T) {
	for _, spec := range []string{"molecule:14", "hubbard:3x3"} {
		fh, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		h := mapping.JordanWigner(fh.Modes).Apply(fh.Majorana(1e-12))
		want := OrderTerms(h, OrderNatural)
		sort.Slice(want, func(i, j int) bool { return want[i].S.Key() < want[j].S.Key() })
		got := OrderTerms(h, OrderLexicographic)
		if len(got) != len(want) {
			t.Fatalf("%s: %d terms, want %d", spec, len(got), len(want))
		}
		for i := range want {
			if !got[i].S.Equal(want[i].S) || got[i].Coeff != want[i].Coeff {
				t.Fatalf("%s: term %d = %v, want %v", spec, i, got[i].S, want[i].S)
			}
		}
	}
}

func TestTrotterStepsScaleAngles(t *testing.T) {
	h := pauli.NewHamiltonian(1)
	h.Add(0.5, pauli.MustParse("Z"))
	one := SynthesizeTrotter(h, 2.0, 1, OrderNatural)
	two := SynthesizeTrotter(h, 2.0, 2, OrderNatural)
	if len(one.Gates) != 1 || len(two.Gates) != 2 {
		t.Fatalf("unexpected gate counts %d, %d", len(one.Gates), len(two.Gates))
	}
	// For a diagonal H the two must agree exactly on a random state.
	r := rand.New(rand.NewSource(5))
	psi := randomState(r, 1)
	a := append([]complex128{}, psi...)
	b := append([]complex128{}, psi...)
	runCircuit(one, a)
	runCircuit(two, b)
	if !statesClose(a, b, 1e-12) {
		t.Error("split Trotter steps of commuting terms differ")
	}
}

func TestCompilePipeline(t *testing.T) {
	h := pauli.NewHamiltonian(3)
	h.Add(0.4, pauli.MustParse("XZI"))
	h.Add(0.2, pauli.MustParse("XZZ"))
	c := Compile(h, OrderLexicographic)
	if c.CNOTCount() == 0 || c.Depth() == 0 {
		t.Error("empty compile result")
	}
	// Shared prefix: the two terms share X2 Z1 ⇒ optimized circuit should
	// use fewer CNOTs than naive 2·(w−1) sum = 2·1 + 2·2 = 6.
	if c.CNOTCount() >= 6 {
		t.Errorf("no ladder sharing: %d CNOTs", c.CNOTCount())
	}
}

func TestRustiqDepthAdvantageOnWideTerm(t *testing.T) {
	// For a single weight-8 term, the balanced tree halves ladder depth.
	h := pauli.NewHamiltonian(8)
	h.Add(0.3, pauli.MustParse("ZZZZZZZZ"))
	ladder := Compile(h, OrderNatural)
	tree := SynthesizeRustiq(h, 1.0)
	if tree.Depth() >= ladder.Depth() {
		t.Errorf("balanced tree depth %d not better than ladder %d", tree.Depth(), ladder.Depth())
	}
	if tree.CNOTCount() != ladder.CNOTCount() {
		t.Errorf("CNOT counts differ: %d vs %d", tree.CNOTCount(), ladder.CNOTCount())
	}
}

func TestAppendPanicsOnBadGate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad gate accepted")
		}
	}()
	c := New(2)
	c.Append(CNOT(0, 5))
}
