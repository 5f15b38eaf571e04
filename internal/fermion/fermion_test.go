package fermion

import (
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func coeffOf(m *MajoranaHamiltonian, idx ...int) complex128 {
	for _, t := range m.Terms {
		if slices.Equal(t.Indices, idx) {
			return t.Coeff
		}
	}
	return 0
}

func TestNumberOperatorExpansion(t *testing.T) {
	// a†_0 a_0 = 1/2 + (i/2)·M0M1
	m := Number(1, 0).Majorana(1e-14)
	if c := coeffOf(m); cmplx.Abs(c-0.5) > 1e-12 {
		t.Errorf("identity coeff = %v, want 0.5", c)
	}
	if c := coeffOf(m, 0, 1); cmplx.Abs(c-complex(0, 0.5)) > 1e-12 {
		t.Errorf("M0M1 coeff = %v, want 0.5i", c)
	}
	if len(m.Terms) != 2 {
		t.Errorf("terms = %d, want 2", len(m.Terms))
	}
}

func TestPaperEquation3(t *testing.T) {
	// HF = a†0a0 + 2·a†1a†2a1a2
	//    = const + 0.5i·M0M1 − 0.5i·M2M3 − 0.5i·M4M5 + 0.5·M2M3M4M5
	h := NewHamiltonian(3)
	h.Add(1, Op{0, true}, Op{0, false})
	h.Add(2, Op{1, true}, Op{2, true}, Op{1, false}, Op{2, false})
	m := h.Majorana(1e-14)
	checks := []struct {
		idx  []int
		want complex128
	}{
		{[]int{0, 1}, complex(0, 0.5)},
		{[]int{2, 3}, complex(0, -0.5)},
		{[]int{4, 5}, complex(0, -0.5)},
		{[]int{2, 3, 4, 5}, complex(0.5, 0)},
	}
	for _, c := range checks {
		if got := coeffOf(m, c.idx...); cmplx.Abs(got-c.want) > 1e-12 {
			t.Errorf("coeff%v = %v, want %v", c.idx, got, c.want)
		}
	}
	sets := m.IndexSets()
	if len(sets) != 4 {
		t.Errorf("IndexSets = %d entries, want 4 (identity dropped)", len(sets))
	}
	if !m.IsHermitian(1e-12) {
		t.Error("Eq. 3 Hamiltonian should be Hermitian")
	}
}

// normalizeTerm runs normalize on a copy of idx.
func normalizeTerm(c complex128, idx []int) MajoranaTerm {
	c, out := normalize(c, append([]int(nil), idx...))
	return MajoranaTerm{Coeff: c, Indices: out}
}

func TestNormalizeAnticommutation(t *testing.T) {
	// M1·M0 = −M0·M1
	nt := normalizeTerm(1, []int{1, 0})
	if cmplx.Abs(nt.Coeff+1) > 1e-12 {
		t.Errorf("coeff = %v, want -1", nt.Coeff)
	}
	if len(nt.Indices) != 2 || nt.Indices[0] != 0 || nt.Indices[1] != 1 {
		t.Errorf("indices = %v", nt.Indices)
	}
}

func TestNormalizeSquareCancels(t *testing.T) {
	// M2·M2 = 1 and M3·M2·M2 = M3.
	nt := normalizeTerm(2, []int{2, 2})
	if len(nt.Indices) != 0 || cmplx.Abs(nt.Coeff-2) > 1e-12 {
		t.Errorf("M2M2 = %v·%v", nt.Coeff, nt.Indices)
	}
	nt = normalizeTerm(1, []int{3, 2, 2})
	if len(nt.Indices) != 1 || nt.Indices[0] != 3 {
		t.Errorf("M3M2M2 = %v·%v", nt.Coeff, nt.Indices)
	}
	if cmplx.Abs(nt.Coeff-1) > 1e-12 {
		t.Errorf("M3M2M2 coeff = %v, want 1", nt.Coeff)
	}
	// M2·M3·M2 = −M3·M2·M2 = −M3.
	nt = normalizeTerm(1, []int{2, 3, 2})
	if len(nt.Indices) != 1 || nt.Indices[0] != 3 || cmplx.Abs(nt.Coeff+1) > 1e-12 {
		t.Errorf("M2M3M2 = %v·%v, want -1·[3]", nt.Coeff, nt.Indices)
	}
}

func TestNormalizeQuadruple(t *testing.T) {
	// M3M1M2M0 → sort to M0M1M2M3; permutation (3,1,2,0) has 5 inversions
	// → sign −1.
	nt := normalizeTerm(1, []int{3, 1, 2, 0})
	if cmplx.Abs(nt.Coeff+1) > 1e-12 {
		t.Errorf("coeff = %v, want -1", nt.Coeff)
	}
}

func TestAddHermitianHopping(t *testing.T) {
	h := Hop(2, 0.7, 0, 1)
	if h.NumTerms() != 2 {
		t.Fatalf("hop terms = %d, want 2", h.NumTerms())
	}
	m := h.Majorana(1e-14)
	if !m.IsHermitian(1e-12) {
		t.Error("hopping should be Hermitian")
	}
	// a†0a1 + a†1a0 = (i/2)(M0M3... ) — just check all coeffs are ±i/2·…
	// with total 4 quadratic monomials of imaginary coefficient.
	for _, term := range m.Terms {
		if len(term.Indices) != 2 {
			t.Errorf("unexpected monomial %v", term.Indices)
		}
	}
}

func TestAddHermitianSelfConjugateNotDoubled(t *testing.T) {
	// a†_j a_j is its own conjugate: AddHermitian must add it once.
	h := NewHamiltonian(1)
	h.AddHermitian(1, Op{0, true}, Op{0, false})
	if h.NumTerms() != 1 {
		t.Fatalf("self-conjugate term doubled: %d terms", h.NumTerms())
	}
	// A complex-coefficient diagonal term must still get its conjugate.
	h2 := NewHamiltonian(1)
	h2.AddHermitian(complex(0, 1), Op{0, true}, Op{0, false})
	if h2.NumTerms() != 2 {
		t.Fatalf("complex diagonal term not conjugated: %d terms", h2.NumTerms())
	}
}

func TestVanishingTermsCancel(t *testing.T) {
	// a_0 a_0 = 0 identically, so the Majorana expansion must cancel.
	h := NewHamiltonian(1)
	h.Add(1, Op{0, false}, Op{0, false})
	m := h.Majorana(1e-14)
	if len(m.Terms) != 0 {
		t.Errorf("a0·a0 should vanish, got %s", m)
	}
}

func TestAnticommutatorIdentity(t *testing.T) {
	// {a_i, a†_i} = 1: expand a_0 a†_0 + a†_0 a_0 and check it equals
	// the identity monomial with coefficient 1.
	h := NewHamiltonian(2)
	h.Add(1, Op{0, false}, Op{0, true})
	h.Add(1, Op{0, true}, Op{0, false})
	m := h.Majorana(1e-14)
	if len(m.Terms) != 1 || len(m.Terms[0].Indices) != 0 {
		t.Fatalf("anticommutator = %s, want identity", m)
	}
	if cmplx.Abs(m.Terms[0].Coeff-1) > 1e-12 {
		t.Fatalf("coeff = %v, want 1", m.Terms[0].Coeff)
	}
	// {a_0, a†_1} = 0 for distinct modes.
	h2 := NewHamiltonian(2)
	h2.Add(1, Op{0, false}, Op{1, true})
	h2.Add(1, Op{1, true}, Op{0, false})
	if m2 := h2.Majorana(1e-14); len(m2.Terms) != 0 {
		t.Fatalf("cross anticommutator = %s, want 0", m2)
	}
}

func TestExpansionTermCountProperty(t *testing.T) {
	// A single product of k distinct-mode operators expands into at most 2^k
	// monomials, all with k Majorana indices.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		k := 1 + r.Intn(3)
		perm := r.Perm(n)[:k]
		h := NewHamiltonian(n)
		ops := make([]Op, k)
		for i, mode := range perm {
			ops[i] = Op{Mode: mode, Dagger: r.Intn(2) == 0}
		}
		h.Add(1, ops...)
		m := h.Majorana(1e-14)
		if len(m.Terms) > 1<<k {
			return false
		}
		for _, term := range m.Terms {
			if len(term.Indices) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeAndString(t *testing.T) {
	a := Number(2, 0)
	b := Number(2, 1)
	a.Merge(b)
	if a.NumTerms() != 2 {
		t.Fatalf("merged terms = %d", a.NumTerms())
	}
	if s := a.String(); s == "" || s == "0" {
		t.Errorf("String() = %q", s)
	}
	m := a.Majorana(1e-14)
	if s := m.String(); s == "" || s == "0" {
		t.Errorf("Majorana String() = %q", s)
	}
}

func TestModeRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range mode did not panic")
		}
	}()
	h := NewHamiltonian(2)
	h.Add(1, Op{5, true})
}
