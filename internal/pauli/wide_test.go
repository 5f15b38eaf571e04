package pauli

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests targeting the multi-word (>64 qubit) bitset paths.

func TestWideStringsBasics(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 128, 129, 200} {
		s := Identity(n)
		s.SetLetter(0, X)
		s.SetLetter(n-1, Y)
		wantW := 2
		if n > 65 { // qubit 64 distinct from both ends
			s.SetLetter(64, Z)
			wantW = 3
		}
		if s.Weight() != wantW {
			t.Errorf("n=%d: weight %d, want %d", n, s.Weight(), wantW)
		}
		if s.Letter(n-1) != Y || s.Letter(0) != X {
			t.Errorf("n=%d: boundary letters wrong", n)
		}
		sq := s.Mul(s)
		if !sq.IsIdentity() || sq.PhaseCoeff() != 1 {
			t.Errorf("n=%d: square not +I", n)
		}
	}
}

func TestXEqualComparesEveryWord(t *testing.T) {
	a, b := Identity(130), Identity(130)
	a.SetLetter(3, X)
	b.SetLetter(3, Y) // same flip, different Z bit
	a.SetLetter(100, Z)
	if !a.XEqual(b) {
		t.Fatal("X and Y on one qubit, Z elsewhere: X masks should match")
	}
	b.SetLetter(129, X) // differs only in the third word
	if a.XEqual(b) {
		t.Fatal("XEqual missed a flip in the last mask word")
	}
	if Identity(64).XEqual(Identity(65)) {
		t.Fatal("XEqual matched strings on different qubit counts")
	}
}

func TestWideMulCrossesWordBoundary(t *testing.T) {
	n := 130
	a := Identity(n)
	b := Identity(n)
	for q := 60; q < 70; q++ {
		a.SetLetter(q, X)
		b.SetLetter(q, Z)
	}
	p := a.Mul(b)
	for q := 60; q < 70; q++ {
		if p.Letter(q) != Y {
			t.Fatalf("product letter at %d = %v, want Y", q, p.Letter(q))
		}
	}
	// X·Z = −iY per qubit: 10 qubits ⇒ phase (−i)^10 = −1... verify via
	// LetterCoeff: a.Mul(b) should equal (−i)^10 × (letters).
	if c := p.LetterCoeff(); c != -1 {
		t.Fatalf("phase = %v, want -1", c)
	}
}

func TestWideCommutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 65 + r.Intn(120)
		a := randomString(r, n)
		b := randomString(r, n)
		// Commutes must be symmetric and consistent with product phases.
		if a.Commutes(b) != b.Commutes(a) {
			return false
		}
		ab, ba := a.Mul(b), b.Mul(a)
		return a.Commutes(b) == (ab.Phase() == ba.Phase())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSupportWeightConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		s := randomString(r, n)
		sup := s.Support()
		if len(sup) != s.Weight() {
			return false
		}
		for _, q := range sup {
			if s.Letter(q) == I {
				return false
			}
		}
		// Support is strictly increasing.
		for i := 1; i < len(sup); i++ {
			if sup[i] <= sup[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		s := randomString(r, n)
		back := MustParse(s.String())
		return back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHamiltonianWideQubits(t *testing.T) {
	h := NewHamiltonian(100)
	s := Identity(100)
	s.SetLetter(99, X)
	s.SetLetter(3, Z)
	h.Add(1.5, s)
	h.Add(1.5, s)
	if h.Len() != 1 {
		t.Fatal("wide strings did not merge")
	}
	if h.Weight() != 2 {
		t.Fatalf("weight = %d", h.Weight())
	}
}
