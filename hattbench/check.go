package main

import (
	"errors"
	"fmt"
	"math/bits"
	"math/cmplx"
	"strings"

	"repro/internal/fermion"
)

// The checker re-derives every property it asserts from the mapping's
// Pauli strings as text, with its own multi-word symplectic masks, so it
// works at any mode count and shares no code with pkg/compiler or
// internal/mapping.

// pstring is one parsed Pauli string: letter masks over n qubits plus
// the power of i in its written prefix ("", "i·", "-", "-i·").
type pstring struct {
	n      int
	x, z   []uint64
	prefix int // power of i, mod 4
	ys     int // number of Y letters
}

// parsePauli reads the text form the program prints: an optional phase
// prefix, then one letter per qubit with qubit n-1 leftmost.
func parsePauli(text string) (pstring, error) {
	var p pstring
	rest := text
	switch {
	case strings.HasPrefix(rest, "-i·"):
		p.prefix, rest = 3, strings.TrimPrefix(rest, "-i·")
	case strings.HasPrefix(rest, "i·"):
		p.prefix, rest = 1, strings.TrimPrefix(rest, "i·")
	case strings.HasPrefix(rest, "-"):
		p.prefix, rest = 2, rest[1:]
	}
	p.n = len(rest)
	if p.n == 0 {
		return p, fmt.Errorf("empty Pauli string %q", text)
	}
	w := (p.n + 63) / 64
	p.x, p.z = make([]uint64, w), make([]uint64, w)
	for i := 0; i < p.n; i++ {
		q := p.n - 1 - i
		bit := uint64(1) << (q % 64)
		switch rest[i] {
		case 'I':
		case 'X':
			p.x[q/64] |= bit
		case 'Z':
			p.z[q/64] |= bit
		case 'Y':
			p.x[q/64] |= bit
			p.z[q/64] |= bit
			p.ys++
		default:
			return p, fmt.Errorf("bad letter %q in Pauli string %q", rest[i], text)
		}
	}
	return p, nil
}

func anticommute(a, b pstring) bool {
	odd := 0
	for i := range a.x {
		odd ^= bits.OnesCount64(a.x[i]&b.z[i]^a.z[i]&b.x[i]) & 1
	}
	return odd == 1
}

func sameMask(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMapping verifies a mapping given as its 2N Majorana strings:
//   - exactly 2·modes strings on one qubit count, each Hermitian
//     (real prefix) and not the identity;
//   - the strings pairwise anticommute;
//   - with vacuum set, every mode's annihilator (S_2j + i·S_2j+1)/2
//     sends |0…0⟩ to zero.
//
// It returns the parsed strings for weight recomputation.
func checkMapping(strs []string, modes int, vacuum bool) ([]pstring, error) {
	if len(strs) != 2*modes {
		return nil, fmt.Errorf("mapping has %d strings, want %d", len(strs), 2*modes)
	}
	ps := make([]pstring, len(strs))
	for i, s := range strs {
		p, err := parsePauli(s)
		if err != nil {
			return nil, fmt.Errorf("M%d: %w", i, err)
		}
		if i > 0 && p.n != ps[0].n {
			return nil, fmt.Errorf("M%d spans %d qubits, M0 spans %d", i, p.n, ps[0].n)
		}
		if p.prefix%2 != 0 {
			return nil, fmt.Errorf("M%d = %s is not Hermitian", i, s)
		}
		identity := true
		for w := range p.x {
			if p.x[w]|p.z[w] != 0 {
				identity = false
			}
		}
		if identity {
			return nil, fmt.Errorf("M%d is the identity", i)
		}
		ps[i] = p
	}
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if !anticommute(ps[i], ps[j]) {
				return nil, fmt.Errorf("M%d and M%d commute", i, j)
			}
		}
	}
	if vacuum {
		for j := 0; j < modes; j++ {
			a, b := ps[2*j], ps[2*j+1]
			// S|0…0⟩ = i^(prefix+#Y)·|x⟩, so the two terms cancel iff they
			// flip the same qubits and i^pa = -i·i^pb.
			pa, pb := a.prefix+a.ys, b.prefix+b.ys
			if !sameMask(a.x, b.x) || (pa-pb-3)%4 != 0 {
				return nil, fmt.Errorf("mode %d: mapping does not preserve the vacuum", j)
			}
		}
	}
	return ps, nil
}

// monoKey is a normal-ordered Majorana monomial: up to 8 strictly
// increasing indices.
type monoKey struct {
	n   uint8
	idx [8]uint16
}

// majoranaSets expands a fermionic Hamiltonian into its normal-ordered
// Majorana monomials (a†_j = (M_2j − i·M_2j+1)/2, a_j = (M_2j + i·M_2j+1)/2),
// merges equal monomials in term order and returns the non-identity
// index sets whose coefficient survives |c| > eps.
func majoranaSets(h *fermion.Hamiltonian, eps float64) ([]monoKey, error) {
	type mono struct {
		c   complex128
		idx []int
	}
	acc := make(map[monoKey]complex128)
	var order []monoKey
	for _, t := range h.Terms {
		if len(t.Ops) > 8 {
			return nil, errors.New("checker handles terms of at most 8 operators")
		}
		monos := []mono{{c: t.Coeff}}
		for _, o := range t.Ops {
			sgn := complex(0, 0.5)
			if o.Dagger {
				sgn = complex(0, -0.5)
			}
			next := make([]mono, 0, 2*len(monos))
			for _, m := range monos {
				next = append(next,
					mono{m.c * 0.5, append(append([]int(nil), m.idx...), 2*o.Mode)},
					mono{m.c * sgn, append(append([]int(nil), m.idx...), 2*o.Mode+1)})
			}
			monos = next
		}
		for _, m := range monos {
			idx, neg := m.idx, false
			for i := 1; i < len(idx); i++ {
				for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
					idx[j-1], idx[j] = idx[j], idx[j-1]
					neg = !neg
				}
			}
			var k monoKey
			for i := 0; i < len(idx); {
				if i+1 < len(idx) && idx[i] == idx[i+1] {
					i += 2
					continue
				}
				k.idx[k.n] = uint16(idx[i])
				k.n++
				i++
			}
			c := m.c
			if neg {
				c = -c
			}
			prev, seen := acc[k]
			if !seen {
				order = append(order, k)
			}
			acc[k] = c + prev
		}
	}
	out := order[:0]
	for _, k := range order {
		if k.n > 0 && cmplx.Abs(acc[k]) > eps {
			out = append(out, k)
		}
	}
	return out, nil
}

// qubitWeight is the Pauli weight of the qubit Hamiltonian the mapping
// produces: each surviving monomial maps to the product of its strings,
// and distinct monomials map to distinct Pauli strings under a valid
// mapping, so the total weight is the sum over monomials.
func qubitWeight(ps []pstring, sets []monoKey) int {
	if len(ps) == 0 {
		return 0
	}
	w := len(ps[0].x)
	x, z := make([]uint64, w), make([]uint64, w)
	total := 0
	for _, k := range sets {
		clear(x)
		clear(z)
		for _, i := range k.idx[:k.n] {
			for j := 0; j < w; j++ {
				x[j] ^= ps[i].x[j]
				z[j] ^= ps[i].z[j]
			}
		}
		for j := 0; j < w; j++ {
			total += bits.OnesCount64(x[j] | z[j])
		}
	}
	return total
}

// checkCompiled runs every mapping check and compares the weight the
// program predicted with the weight recomputed from the monomials.
func checkCompiled(strs []string, sets []monoKey, modes, predicted int) error {
	ps, err := checkMapping(strs, modes, true)
	if err != nil {
		return err
	}
	if w := qubitWeight(ps, sets); w != predicted {
		return fmt.Errorf("predicted weight %d, recomputed %d", predicted, w)
	}
	return nil
}

// montrealEdges is the 27-qubit heavy-hex coupling graph the program
// calls "montreal": three 7-qubit rows joined by bridge qubits 21–26 at
// columns 0, 3 and 6.
var montrealEdges = func() map[[2]int]bool {
	e := make(map[[2]int]bool)
	add := func(a, b int) { e[[2]int{a, b}], e[[2]int{b, a}] = true, true }
	for r := 0; r < 3; r++ {
		for c := 0; c < 6; c++ {
			add(7*r+c, 7*r+c+1)
		}
	}
	bridge := 21
	for r := 0; r < 2; r++ {
		for c := 0; c < 7; c += 3 {
			add(7*r+c, bridge)
			add(bridge, 7*(r+1)+c)
			bridge++
		}
	}
	return e
}()

// checkCoupling confirms every two-qubit gate of a routed circuit acts
// on a device edge and returns the number of such gates.
func checkCoupling(pairs [][2]int, edges map[[2]int]bool) (int, error) {
	for _, p := range pairs {
		if !edges[p] {
			return 0, fmt.Errorf("two-qubit gate on q%d,q%d is not a device edge", p[0], p[1])
		}
	}
	return len(pairs), nil
}
