package circuit

import (
	"repro/internal/pauli"
)

// SynthesizeRustiq is the "rustiq-lite" synthesis pass: a simplified
// re-implementation of the idea behind Rustiq (de Brugière & Martiel) —
// shorter Pauli-evolution circuits through balanced parity-accumulation
// trees instead of linear CNOT ladders, with greedy term chaining so that
// consecutive terms share basis changes. The output is over the same
// {CNOT, U3} basis and is followed by the standard peephole pass.
//
// This is a stand-in for the paper's external Rustiq toolchain: absolute
// gate counts differ from the published tool, but the JW-vs-HATT
// comparison it supports is preserved (both mappings are compiled by the
// same pass).
func SynthesizeRustiq(h *pauli.Hamiltonian, t float64) *Circuit {
	c := New(h.N())
	for _, term := range OrderTerms(h, OrderGreedyOverlap) {
		theta := 2 * real(term.Coeff) * t
		appendEvolutionBalanced(c, term.S, theta)
	}
	return OptimizeInPlace(c)
}

// appendEvolutionBalanced emits exp(−i·θ/2·P) using a balanced CNOT
// reduction tree: supports are pairwise folded until one qubit holds the
// parity, halving the ladder depth from |support| to log₂|support|.
func appendEvolutionBalanced(c *Circuit, p pauli.String, theta float64) {
	sup := p.Support()
	if len(sup) == 0 {
		return
	}
	var in, out []Gate
	for _, q := range sup {
		switch p.Letter(q) {
		case pauli.X:
			in = append(in, H(q))
			out = append(out, H(q))
		case pauli.Y:
			in = append(in, RxPlus(q))
			out = append(out, RxMinus(q))
		}
	}
	c.Append(in...)
	// Balanced fold: at each round, fold the first half onto the second.
	var fold func(qs []int) int
	var ladder []Gate
	fold = func(qs []int) int {
		if len(qs) == 1 {
			return qs[0]
		}
		mid := len(qs) / 2
		a := fold(qs[:mid])
		b := fold(qs[mid:])
		ladder = append(ladder, CNOT(a, b))
		return b
	}
	target := fold(sup)
	c.Append(ladder...)
	c.Append(Rz(target, theta))
	for i := len(ladder) - 1; i >= 0; i-- {
		c.Append(ladder[i])
	}
	c.Append(out...)
}
