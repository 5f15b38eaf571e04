package circuit

import (
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/pauli"
)

// TermOrder selects how Hamiltonian terms are sequenced in a Trotter step.
type TermOrder int

const (
	// OrderNatural keeps the deterministic Hamiltonian term order.
	OrderNatural TermOrder = iota
	// OrderLexicographic sorts terms by their string keys, grouping terms
	// with similar supports so the peephole pass can cancel shared ladders.
	OrderLexicographic
	// OrderGreedyOverlap greedily chains terms by maximum shared support
	// with the previous term (Paulihedral-flavoured scheduling).
	OrderGreedyOverlap
)

// OrderTerms returns the Hamiltonian's non-identity real-coefficient terms
// in the requested order.
func OrderTerms(h *pauli.Hamiltonian, ord TermOrder) []pauli.Term {
	var ts []pauli.Term
	for _, t := range h.Terms() {
		if synthesized(t) {
			ts = append(ts, t)
		}
	}
	switch ord {
	case OrderLexicographic:
		// Build each key once rather than twice per comparison.
		type keyedTerm struct {
			key string
			t   pauli.Term
		}
		dec := make([]keyedTerm, len(ts))
		for i, t := range ts {
			dec[i] = keyedTerm{t.S.Key(), t}
		}
		sort.Slice(dec, func(i, j int) bool { return dec[i].key < dec[j].key })
		for i := range dec {
			ts[i] = dec[i].t
		}
	case OrderGreedyOverlap:
		ts = greedyChain(ts)
	}
	return ts
}

// greedyChain reorders terms so that consecutive terms share as much
// support as possible, starting from the largest-coefficient term.
func greedyChain(ts []pauli.Term) []pauli.Term {
	if len(ts) <= 2 {
		return ts
	}
	used := make([]bool, len(ts))
	out := make([]pauli.Term, 0, len(ts))
	cur := 0
	used[0] = true
	out = append(out, ts[0])
	for len(out) < len(ts) {
		bestJ, bestScore := -1, -1
		for j := range ts {
			if used[j] {
				continue
			}
			score := overlap(ts[cur].S, ts[j].S)
			if score > bestScore {
				bestScore, bestJ = score, j
			}
		}
		used[bestJ] = true
		out = append(out, ts[bestJ])
		cur = bestJ
	}
	return out
}

// overlap counts qubits where both strings have the same non-identity
// letter (those survive ladder/basis sharing) plus a smaller credit for
// shared support with different letters.
func overlap(a, b pauli.String) int {
	score := 0
	for _, q := range a.Support() {
		lb := b.Letter(q)
		if lb == pauli.I {
			continue
		}
		if lb == a.Letter(q) {
			score += 2
		} else {
			score++
		}
	}
	return score
}

// AppendEvolution appends the circuit snippet implementing
// exp(−i·θ/2·P) for a single Pauli string P (Fig. 2): basis changes into Z,
// a CNOT ladder onto the last support qubit, Rz(θ), and the inverse ladder
// and basis changes.
func AppendEvolution(c *Circuit, p pauli.String, theta float64) {
	sup := p.Support()
	if len(sup) == 0 {
		return // global phase only
	}
	target := sup[len(sup)-1]
	for _, q := range sup {
		switch p.Letter(q) {
		case pauli.X:
			c.Append(H(q))
		case pauli.Y:
			c.Append(RxPlus(q))
		}
	}
	for i := 0; i+1 < len(sup); i++ {
		c.Append(CNOT(sup[i], target))
	}
	c.Append(Rz(target, theta))
	for i := len(sup) - 2; i >= 0; i-- {
		c.Append(CNOT(sup[i], target))
	}
	for _, q := range sup {
		switch p.Letter(q) {
		case pauli.X:
			c.Append(H(q))
		case pauli.Y:
			c.Append(RxMinus(q))
		}
	}
}

// SynthesizeTrotter compiles one or more first-order Trotter steps of
// exp(−i·H·t): each term c_j·S_j becomes exp(−i·c_j·t/steps·S_j) repeated
// `steps` times. Coefficients must be real (Hermitian H). It allocates
// room for TrotterGates(h, steps) gates up front.
func SynthesizeTrotter(h *pauli.Hamiltonian, t float64, steps int, ord TermOrder) *Circuit {
	if steps < 1 {
		steps = 1
	}
	c := New(h.N())
	ts := OrderTerms(h, ord)
	c.Gates = make([]Gate, 0, steps*stepGates(ts))
	for s := 0; s < steps; s++ {
		for _, term := range ts {
			theta := 2 * real(term.Coeff) * t / float64(steps)
			AppendEvolution(c, term.S, theta)
		}
	}
	return c
}

// TrotterGates bounds the gates SynthesizeTrotter emits for h at the
// given step count — the room it allocates — without building any:
// 4w−1 per weight-w term per step. It saturates at math.MaxInt rather
// than overflowing, so callers can hold any step count to a cap.
func TrotterGates(h *pauli.Hamiltonian, steps int) int {
	size := stepGates(h.Terms())
	if steps > 1 && size > math.MaxInt/steps {
		return math.MaxInt
	}
	return max(steps, 1) * size
}

// stepGates bounds one Trotter step over the synthesized terms of ts:
// a weight-w term takes at most 2w basis changes, 2(w−1) CNOTs and one
// Rz.
func stepGates(ts []pauli.Term) int {
	size := 0
	for _, term := range ts {
		if synthesized(term) {
			size += 4*term.S.Weight() - 1
		}
	}
	return size
}

// synthesized reports whether a term contributes gates: identity terms
// and vanishing coefficients are skipped.
func synthesized(t pauli.Term) bool {
	return !t.S.IsIdentity() && cmplx.Abs(t.Coeff) >= 1e-12
}

// Optimize runs the peephole pass (see OptimizeInPlace) on a copy of c
// and returns the copy; c is unchanged. Callers that own c and no
// longer need its unoptimized gates use OptimizeInPlace instead.
func Optimize(c *Circuit) *Circuit {
	out := New(c.N)
	out.Gates = make([]Gate, len(c.Gates))
	copy(out.Gates, c.Gates)
	return OptimizeInPlace(out)
}

// OptimizeInPlace runs the peephole passes to a fixpoint: adjacent CNOT
// pairs with identical control/target cancel, adjacent single-qubit
// gates on the same qubit merge into one U3 (dropped if the product is
// the identity up to global phase). Gates commute past gates on
// disjoint qubits, which the scan handles by tracking the previous gate
// touching each qubit. It rewrites and compacts c.Gates where they sit —
// any other slice sharing their backing array sees the rewrite — and
// returns c.
func OptimizeInPlace(c *Circuit) *Circuit {
	alive := make([]bool, len(c.Gates))
	// A handful of passes reaches the fixpoint on Trotter circuits; the cap
	// bounds worst-case cost on very large inputs.
	for pass := 0; pass < 6; pass++ {
		var changed bool
		c.Gates, changed = optimizePass(c.Gates, alive[:len(c.Gates)])
		if !changed {
			break
		}
	}
	return c
}

// scanWindow bounds the backward commutation scan per gate, keeping the
// pass near-linear on large circuits.
const scanWindow = 128

// optimizePass runs one peephole pass over gates, using alive (same
// length) as scratch, and compacts the surviving gates in place.
func optimizePass(gates []Gate, alive []bool) ([]Gate, bool) {
	for i := range alive {
		alive[i] = true
	}
	changed := false
	for i := range gates {
		g := &gates[i]
		if g.Kind == KindCNOT {
			// Walk backwards past gates that commute with this CNOT; an
			// identical CNOT encountered that way cancels with it.
			steps := 0
			for j := i - 1; j >= 0 && steps < scanWindow; j-- {
				if !alive[j] {
					continue
				}
				steps++
				pg := &gates[j]
				if pg.Kind == KindCNOT && pg.Q == g.Q && pg.Q2 == g.Q2 {
					alive[i] = false
					alive[j] = false
					changed = true
					break
				}
				if !commutesWithCNOT(pg, g) {
					break
				}
			}
			continue
		}
		// Single-qubit gate: merge with the previous alive gate on this
		// qubit when that gate is also single-qubit.
		for j := i - 1; j >= 0; j-- {
			if !alive[j] {
				continue
			}
			pg := &gates[j]
			if pg.Q != g.Q && !(pg.Kind == KindCNOT && pg.Q2 == g.Q) {
				continue // different qubits: keep scanning
			}
			if pg.Kind != KindSingle {
				break
			}
			merged := mulMat(g.M, pg.M) // g applied after pg ⇒ g·pg
			alive[j] = false
			changed = true
			if isIdentityMat(merged) {
				alive[i] = false
			} else {
				gates[i] = Gate{Kind: KindSingle, Q: g.Q, Q2: -1, Label: "U3", M: merged}
			}
			break
		}
	}
	if !changed {
		return gates, false
	}
	n := 0
	for i := range gates {
		if alive[i] {
			gates[n] = gates[i]
			n++
		}
	}
	return gates[:n], true
}

// commutesWithCNOT reports (conservatively) whether gate pg commutes with
// the CNOT g: gates on disjoint qubits always do; CNOTs sharing only the
// target, or only the control, commute; a diagonal single-qubit gate on the
// control commutes; an X gate on the target commutes.
func commutesWithCNOT(pg, g *Gate) bool {
	if pg.Kind == KindCNOT {
		if pg.Q == g.Q && pg.Q2 == g.Q2 {
			return true // identical (handled by caller, but commutes anyway)
		}
		sharesTarget := pg.Q == g.Q
		sharesControl := pg.Q2 == g.Q2
		crossesTC := pg.Q == g.Q2 || pg.Q2 == g.Q
		if crossesTC {
			return false
		}
		return !sharesTarget && !sharesControl || sharesTarget != sharesControl
	}
	if pg.Q != g.Q && pg.Q != g.Q2 {
		return true
	}
	if pg.Q == g.Q2 { // on the control: diagonal gates commute
		return cmplxAbs(pg.M[0][1]) < 1e-12 && cmplxAbs(pg.M[1][0]) < 1e-12
	}
	// On the target: X-like (pure bit-flip with equal off-diagonals)
	// commutes.
	return cmplxAbs(pg.M[0][0]) < 1e-12 && cmplxAbs(pg.M[1][1]) < 1e-12 &&
		cmplxAbs(pg.M[0][1]-pg.M[1][0]) < 1e-12
}

func cmplxAbs(c complex128) float64 {
	re, im := real(c), imag(c)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re+im == 0 {
		return 0
	}
	return re + im // 1-norm is fine for thresholding
}

// Compile is the end-to-end pipeline the evaluation uses: order terms,
// synthesize one Trotter step at t = 1, and optimize the fresh circuit
// in place.
func Compile(h *pauli.Hamiltonian, ord TermOrder) *Circuit {
	return OptimizeInPlace(SynthesizeTrotter(h, 1.0, 1, ord))
}
