package mapping

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/tree"
)

func allMappings(n int) []*Mapping {
	return []*Mapping{JordanWigner(n), BravyiKitaev(n), BalancedTernaryTree(n)}
}

func TestMappingsVerify(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for _, m := range allMappings(n) {
			if err := m.Verify(); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}

func TestMappingsVacuumPreserved(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for _, m := range allMappings(n) {
			if !m.VacuumPreserved() {
				t.Errorf("%s(%d) not vacuum preserving", m.Name, n)
			}
		}
	}
}

func TestJordanWignerMatchesPaper(t *testing.T) {
	// Paper §II-C: M0 = IX, M1 = IY, M2 = XZ, M3 = YZ for n = 2.
	m := JordanWigner(2)
	want := []string{"IX", "IY", "XZ", "YZ"}
	for i, w := range want {
		if got := m.Majorana(i).String(); got != w {
			t.Errorf("M%d = %s, want %s", i, got, w)
		}
	}
}

func TestJWPaperExampleHamiltonian(t *testing.T) {
	// Equation (1) with the JW mapping must produce
	// HQ = (2c0+2c1-c2)/4·II + (c2-2c0)/4·IZ + (c2-2c1)/4·ZI − c2/4·ZZ.
	c0, c1, c2 := 1.0, 2.0, 3.0
	h := fermion.NewHamiltonian(2)
	h.Add(complex(c0, 0), fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 0})
	h.Add(complex(c1, 0), fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 1})
	h.Add(complex(c2, 0), fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1, Dagger: true},
		fermion.Op{Mode: 0}, fermion.Op{Mode: 1})
	hq := JordanWigner(2).ApplyFermionic(h)
	checks := map[string]float64{
		"II": (2*c0 + 2*c1 - c2) / 4,
		"IZ": (c2 - 2*c0) / 4,
		"ZI": (c2 - 2*c1) / 4,
		"ZZ": -c2 / 4,
	}
	for s, want := range checks {
		got := hq.Coeff(pauli.MustParse(s))
		if cmplx.Abs(got-complex(want, 0)) > 1e-12 {
			t.Errorf("coeff(%s) = %v, want %v", s, got, want)
		}
	}
	if hq.Len() != 4 {
		t.Errorf("HQ has %d terms, want 4: %s", hq.Len(), hq)
	}
}

func TestBKFenwickSetsSmall(t *testing.T) {
	// n = 2: root 1 with child 0.
	f := NewFenwickTree(2)
	if got := f.UpdateSet(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("U(0) = %v, want [1]", got)
	}
	if got := f.ParitySet(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("P(1) = %v, want [0]", got)
	}
	if got := f.RemainderSet(1); len(got) != 0 {
		t.Errorf("C(1) = %v, want []", got)
	}
	// n = 4 (power of two): root 3; children of 3 are {1, 2}; child of 1
	// is {0}.
	f4 := NewFenwickTree(4)
	if got := f4.UpdateSet(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("U(0) = %v, want [1 3]", got)
	}
	if got := f4.ParitySet(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("P(2) = %v, want [1]", got)
	}
	if got := f4.RemainderSet(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("C(2) = %v, want [1]", got)
	}
}

func TestBKKnownStrings(t *testing.T) {
	// Known BK n=2 Majoranas: M0 = XX, M1 = XY, M2 = XZ... M2 has X on
	// qubit 1 with Z parity of qubit 0: "XZ"; M3 = YI → "YI".
	m := BravyiKitaev(2)
	want := []string{"XX", "XY", "XZ", "YI"}
	for i, w := range want {
		if got := m.Majorana(i).String(); got != w {
			t.Errorf("BK M%d = %s, want %s", i, got, w)
		}
	}
}

func TestBKWeightIsLogarithmic(t *testing.T) {
	// BK strings have O(log n) weight; for n = 32 every Majorana should be
	// well below the JW worst case of n.
	m := BravyiKitaev(32)
	for i, s := range m.Majoranas {
		if s.Weight() > 12 {
			t.Errorf("BK M%d weight %d too large", i, s.Weight())
		}
	}
}

func TestBTTWeightMatchesTheory(t *testing.T) {
	// Balanced ternary tree: max string weight = ceil(log3(2n+1)).
	for _, n := range []int{1, 4, 13, 20, 40} {
		m := BalancedTernaryTree(n)
		want := int(math.Ceil(math.Log(float64(2*n+1)) / math.Log(3)))
		for i, s := range m.Majoranas {
			if s.Weight() > want {
				t.Errorf("BTT(%d) M%d weight %d > %d", n, i, s.Weight(), want)
			}
		}
	}
}

func TestSpectraAgreeAcrossMappings(t *testing.T) {
	// The strongest oracle: all valid mappings give unitarily equivalent
	// qubit Hamiltonians, so spectra must match exactly.
	h := fermion.NewHamiltonian(3)
	h.AddHermitian(1.0, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1})
	h.AddHermitian(0.5, fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 2})
	h.Add(2.0, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 0})
	h.Add(0.7,
		fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1, Dagger: true},
		fermion.Op{Mode: 0}, fermion.Op{Mode: 1})
	var ref []float64
	for _, m := range allMappings(3) {
		hq := m.ApplyFermionic(h)
		if !hq.IsHermitian(1e-10) {
			t.Fatalf("%s: qubit Hamiltonian not Hermitian", m.Name)
		}
		ev := linalg.EigenvaluesHermitian(linalg.Matrix(hq))
		if ref == nil {
			ref = ev
			continue
		}
		if !linalg.SpectraClose(ref, ev, 1e-7) {
			t.Errorf("%s spectrum differs: %v vs %v", m.Name, ev, ref)
		}
	}
}

func TestNumberOperatorExpectation(t *testing.T) {
	// ⟨0…0| mapped(a†_j a_j) |0…0⟩ = 0 for vacuum-preserving mappings, and
	// the mapped operator must have trace 2^{n-1} (half-filling).
	for _, m := range allMappings(4) {
		for j := 0; j < 4; j++ {
			hq := m.ApplyFermionic(fermion.Number(4, j))
			if e := hq.ExpectationOnBasis(0); cmplx.Abs(e) > 1e-10 {
				t.Errorf("%s: ⟨0|n_%d|0⟩ = %v, want 0", m.Name, j, e)
			}
			if tr := hq.Trace(); cmplx.Abs(tr-0.5) > 1e-10 {
				t.Errorf("%s: tr(n_%d)/2^n = %v, want 0.5", m.Name, j, tr)
			}
		}
	}
}

func TestFromTreeByLeafID(t *testing.T) {
	tr := tree.Balanced(3)
	m := FromTreeByLeafID("tree", tr)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.Qubits() != 3 || len(m.Majoranas) != 6 {
		t.Fatalf("unexpected shape")
	}
}

func TestVerifyCatchesBrokenMapping(t *testing.T) {
	m := JordanWigner(3)
	// Duplicate a string: breaks anticommutation.
	m.Majoranas[1] = m.Majoranas[0]
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted duplicated Majorana")
	}
	// Identity string.
	m2 := JordanWigner(2)
	m2.Majoranas[0] = pauli.Identity(2)
	if err := m2.Verify(); err == nil {
		t.Error("Verify accepted identity Majorana")
	}
}

func TestVacuumViolationDetected(t *testing.T) {
	// Swap the (X,Y) roles of a JW pair: a_j becomes a†_j on |0⟩ and
	// vacuum preservation must fail.
	m := JordanWigner(2)
	m.Majoranas[0], m.Majoranas[1] = m.Majoranas[1], m.Majoranas[0]
	if m.VacuumPreserved() {
		t.Error("swapped pair should break vacuum preservation")
	}
}

func TestVacuumPreservedAbove64Modes(t *testing.T) {
	// The flip sets span several mask words here; a mismatch confined to
	// a high word must still be caught.
	for _, n := range []int{65, 72, 128} {
		for _, m := range allMappings(n) {
			if !m.VacuumPreserved() {
				t.Errorf("%s(%d) not vacuum preserving", m.Name, n)
			}
		}
		m := JordanWigner(n)
		m.Majoranas[2*(n-1)], m.Majoranas[2*(n-1)+1] = m.Majoranas[2*(n-1)+1], m.Majoranas[2*(n-1)]
		if m.VacuumPreserved() {
			t.Errorf("n=%d: swapped pair %d should break vacuum preservation", n, n-1)
		}
		m = JordanWigner(n)
		m.Majoranas[2*(n-2)], m.Majoranas[2*(n-1)] = m.Majoranas[2*(n-1)], m.Majoranas[2*(n-2)]
		if m.VacuumPreserved() {
			t.Errorf("n=%d: pairs with different flip sets should break vacuum preservation", n)
		}
	}
}

func TestHamiltonianWeightMetric(t *testing.T) {
	h := fermion.Number(2, 0)
	mh := h.Majorana(1e-14)
	// JW: a†0a0 → (II − IZ)/2: weight 1.
	if w := JordanWigner(2).HamiltonianWeight(mh); w != 1 {
		t.Errorf("JW weight = %d, want 1", w)
	}
}
