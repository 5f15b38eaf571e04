// Package fermion implements second-quantized fermionic operators and
// Hamiltonians, plus their expansion into Majorana monomials (Eq. 2 of the
// paper):
//
//	a†_j = (M_{2j} − i·M_{2j+1}) / 2
//	a_j  = (M_{2j} + i·M_{2j+1}) / 2
//
// A fermionic Hamiltonian is a weighted sum of products of creation and
// annihilation operators. The Majorana expansion normal-orders Majorana
// monomials using M_i² = 1 and M_i M_j = −M_j M_i (i≠j) and collects equal
// monomials, producing the preprocessed Hamiltonian H_Q that the HATT
// construction (and every other mapping) consumes.
package fermion

import (
	"encoding/binary"
	"fmt"
	"math/cmplx"
	"sort"
	"strconv"
	"strings"
)

// Op is a single creation (Dagger) or annihilation operator on a mode.
type Op struct {
	Mode   int
	Dagger bool
}

// String renders the operator, e.g. "a†3" or "a1".
func (o Op) String() string {
	if o.Dagger {
		return fmt.Sprintf("a†%d", o.Mode)
	}
	return fmt.Sprintf("a%d", o.Mode)
}

// Term is a weighted product of creation/annihilation operators, applied
// right-to-left (Ops[0] is the leftmost operator, matching written order).
type Term struct {
	Coeff complex128
	Ops   []Op
}

// Hamiltonian is a second-quantized fermionic Hamiltonian on Modes modes.
type Hamiltonian struct {
	Modes int
	Terms []Term
}

// NewHamiltonian returns an empty Hamiltonian on n modes.
func NewHamiltonian(n int) *Hamiltonian {
	if n <= 0 {
		panic("fermion: mode count must be positive")
	}
	return &Hamiltonian{Modes: n}
}

// Add appends the term c·ops to the Hamiltonian. Ops are given in written
// (left-to-right) order. Panics if a mode is out of range.
func (h *Hamiltonian) Add(c complex128, ops ...Op) {
	for _, o := range ops {
		if o.Mode < 0 || o.Mode >= h.Modes {
			panic(fmt.Sprintf("fermion: mode %d out of range [0,%d)", o.Mode, h.Modes))
		}
	}
	cp := make([]Op, len(ops))
	copy(cp, ops)
	h.Terms = append(h.Terms, Term{Coeff: c, Ops: cp})
}

// AddHermitian adds c·ops plus its Hermitian conjugate conj(c)·ops†
// (operators reversed, daggers flipped). If the term is its own conjugate
// — same operator sequence after conjugation and real coefficient — it is
// added only once.
func (h *Hamiltonian) AddHermitian(c complex128, ops ...Op) {
	h.Add(c, ops...)
	conj := make([]Op, len(ops))
	for i, o := range ops {
		conj[len(ops)-1-i] = Op{Mode: o.Mode, Dagger: !o.Dagger}
	}
	if opsEqual(ops, conj) && imag(c) == 0 {
		return
	}
	h.Add(cmplx.Conj(c), conj...)
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumTerms returns the number of stored second-quantized terms.
func (h *Hamiltonian) NumTerms() int { return len(h.Terms) }

// String renders the Hamiltonian in written form.
func (h *Hamiltonian) String() string {
	parts := make([]string, 0, len(h.Terms))
	for _, t := range h.Terms {
		var b strings.Builder
		fmt.Fprintf(&b, "(%.4g%+.4gi)", real(t.Coeff), imag(t.Coeff))
		for _, o := range t.Ops {
			b.WriteString(" ")
			b.WriteString(o.String())
		}
		parts = append(parts, b.String())
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// MajoranaTerm is a weighted normal-ordered Majorana monomial: Coeff times
// the ordered product Π M_i over the strictly increasing Indices.
type MajoranaTerm struct {
	Coeff   complex128
	Indices []int // strictly increasing; empty means the identity
}

// MajoranaHamiltonian is the Majorana-monomial form of a fermionic
// Hamiltonian on 2·Modes Majorana operators.
type MajoranaHamiltonian struct {
	Modes int
	Terms []MajoranaTerm
}

// NumMajoranas returns 2·Modes.
func (m *MajoranaHamiltonian) NumMajoranas() int { return 2 * m.Modes }

// normalize sorts idx in place with anticommutation sign tracking, then
// cancels adjacent equal pairs (M² = 1). It returns the strictly
// increasing index set (a prefix of idx) and c with the sign applied.
func normalize(c complex128, idx []int) (complex128, []int) {
	sign := 1
	// Insertion sort, counting inversions (each adjacent swap flips sign).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			sign = -sign
		}
	}
	// Cancel equal adjacent pairs: M_i·M_i = 1.
	out := idx[:0]
	for i := 0; i < len(idx); {
		if i+1 < len(idx) && idx[i] == idx[i+1] {
			i += 2
			continue
		}
		out = append(out, idx[i])
		i++
	}
	if sign < 0 {
		c = -c
	}
	return c, out
}

// Majorana expands the Hamiltonian into normal-ordered Majorana monomials,
// merging equal monomials and dropping those whose coefficients cancel
// below eps. This is the "preprocess" step of Algorithm 1. Terms come out
// sorted by their decimal index key ("i,j,…," compared as strings).
func (h *Hamiltonian) Majorana(eps float64) *MajoranaHamiltonian {
	// Monomials accumulate under a compact uvarint key built in a reused
	// buffer; acc[string(key)] does not allocate on lookup, so only the
	// first occurrence of a monomial pays for its key and index slice.
	acc := make(map[string]int)
	var terms []MajoranaTerm
	var idx []int
	var key []byte
	for _, t := range h.Terms {
		// Expand each op into its two Majorana components:
		// a†_j = (M_{2j} − i·M_{2j+1})/2 ; a_j = (M_{2j} + i·M_{2j+1})/2.
		// Bit k−1−s of m picks op s's component, so monomials run in the
		// order of op-by-op doubling, each coefficient multiplied op by op.
		k := len(t.Ops)
		for m := 0; m < 1<<k; m++ {
			c := t.Coeff
			idx = idx[:0]
			for s, o := range t.Ops {
				if m>>(k-1-s)&1 == 0 {
					c *= 0.5
					idx = append(idx, 2*o.Mode)
					continue
				}
				if o.Dagger {
					c *= complex(0, -0.5) // −i/2 for a†
				} else {
					c *= complex(0, 0.5) // +i/2 for a
				}
				idx = append(idx, 2*o.Mode+1)
			}
			c, norm := normalize(c, idx)
			key = key[:0]
			for _, i := range norm {
				key = binary.AppendUvarint(key, uint64(i))
			}
			if j, ok := acc[string(key)]; ok {
				terms[j].Coeff += c
				continue
			}
			acc[string(key)] = len(terms)
			terms = append(terms, MajoranaTerm{Coeff: c, Indices: append(make([]int, 0, len(norm)), norm...)})
		}
	}
	dec := make([]string, len(terms))
	order := make([]int, len(terms))
	for i, t := range terms {
		key = key[:0]
		for _, x := range t.Indices {
			key = strconv.AppendInt(key, int64(x), 10)
			key = append(key, ',')
		}
		dec[i] = string(key)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dec[order[a]] < dec[order[b]] })
	out := &MajoranaHamiltonian{Modes: h.Modes}
	for _, i := range order {
		if cmplx.Abs(terms[i].Coeff) <= eps {
			continue
		}
		out.Terms = append(out.Terms, terms[i])
	}
	return out
}

// IsHermitian reports whether the Majorana Hamiltonian is Hermitian within
// eps: a monomial of k Majoranas conjugates to itself times (−1)^{k(k−1)/2},
// so Hermiticity requires Coeff·(−1)^{k(k−1)/2} to equal conj(Coeff).
func (m *MajoranaHamiltonian) IsHermitian(eps float64) bool {
	for _, t := range m.Terms {
		k := len(t.Indices)
		sign := complex128(1)
		if (k*(k-1)/2)%2 == 1 {
			sign = -1
		}
		if cmplx.Abs(t.Coeff*sign-cmplx.Conj(t.Coeff)) > eps {
			return false
		}
	}
	return true
}

// String renders the Majorana Hamiltonian.
func (m *MajoranaHamiltonian) String() string {
	parts := make([]string, 0, len(m.Terms))
	for _, t := range m.Terms {
		var b strings.Builder
		fmt.Fprintf(&b, "(%.4g%+.4gi)", real(t.Coeff), imag(t.Coeff))
		if len(t.Indices) == 0 {
			b.WriteString("·1")
		}
		for _, i := range t.Indices {
			fmt.Fprintf(&b, "·M%d", i)
		}
		parts = append(parts, b.String())
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// IndexSets returns the non-identity monomial index sets, used to seed the
// HATT weight oracle. Identity monomials (constants) are skipped: they
// contribute no Pauli weight.
func (m *MajoranaHamiltonian) IndexSets() [][]int {
	var out [][]int
	for _, t := range m.Terms {
		if len(t.Indices) == 0 {
			continue
		}
		out = append(out, t.Indices)
	}
	return out
}

// A convenience constructor set for tests and examples.

// Number returns the number operator a†_j a_j as a Hamiltonian fragment.
func Number(n, j int) *Hamiltonian {
	h := NewHamiltonian(n)
	h.Add(1, Op{j, true}, Op{j, false})
	return h
}

// Hop returns the Hermitian hopping term t·(a†_i a_j + a†_j a_i).
func Hop(n int, t float64, i, j int) *Hamiltonian {
	h := NewHamiltonian(n)
	h.AddHermitian(complex(t, 0), Op{i, true}, Op{j, false})
	return h
}

// Merge appends all terms of g into h (same mode count required).
func (h *Hamiltonian) Merge(g *Hamiltonian) {
	if g.Modes != h.Modes {
		panic("fermion: Merge mode mismatch")
	}
	h.Terms = append(h.Terms, g.Terms...)
}
