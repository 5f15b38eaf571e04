// Package circuit provides the quantum-circuit IR and the Trotter-step
// synthesis used to turn qubit Hamiltonians into gate sequences (§II-B2,
// Fig. 2 of the paper), together with the light-weight optimization passes
// standing in for the paper's Paulihedral/Rustiq/Qiskit-L3 toolchain:
// adjacency-aware term ordering, CNOT-ladder sharing via peephole
// cancellation, and single-qubit gate merging into the {CNOT, U3} basis.
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Kind distinguishes the two basis-gate classes.
type Kind int

// Gate kinds: arbitrary single-qubit unitaries (U3) and CNOT.
const (
	KindSingle Kind = iota
	KindCNOT
)

// Gate is one basis gate. For KindSingle, Q is the qubit and M the 2×2
// unitary; for KindCNOT, Q2 is the control and Q the target.
type Gate struct {
	Kind  Kind
	Q     int // target qubit
	Q2    int // control qubit (CNOT only; -1 otherwise)
	Label string
	M     [2][2]complex128
}

// Single-qubit gate matrices.
var (
	matH = [2][2]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	matRxPlus = [2][2]complex128{ // Rx(+π/2)
		{complex(1/math.Sqrt2, 0), complex(0, -1/math.Sqrt2)},
		{complex(0, -1/math.Sqrt2), complex(1/math.Sqrt2, 0)},
	}
	matRxMinus = [2][2]complex128{ // Rx(−π/2)
		{complex(1/math.Sqrt2, 0), complex(0, 1/math.Sqrt2)},
		{complex(0, 1/math.Sqrt2), complex(1/math.Sqrt2, 0)},
	}
	matX = [2][2]complex128{{0, 1}, {1, 0}}
)

// H returns a Hadamard gate on q.
func H(q int) Gate { return Gate{Kind: KindSingle, Q: q, Q2: -1, Label: "H", M: matH} }

// RxPlus returns Rx(π/2) on q (Y-basis change in).
func RxPlus(q int) Gate {
	return Gate{Kind: KindSingle, Q: q, Q2: -1, Label: "RX+", M: matRxPlus}
}

// RxMinus returns Rx(−π/2) on q (Y-basis change out).
func RxMinus(q int) Gate {
	return Gate{Kind: KindSingle, Q: q, Q2: -1, Label: "RX-", M: matRxMinus}
}

// X returns a Pauli-X gate on q.
func X(q int) Gate { return Gate{Kind: KindSingle, Q: q, Q2: -1, Label: "X", M: matX} }

// Rz returns Rz(θ) = diag(e^{−iθ/2}, e^{iθ/2}) on q.
func Rz(q int, theta float64) Gate {
	return Gate{
		Kind: KindSingle, Q: q, Q2: -1, Label: fmt.Sprintf("RZ(%.4g)", theta),
		M: [2][2]complex128{
			{cmplx.Exp(complex(0, -theta/2)), 0},
			{0, cmplx.Exp(complex(0, theta/2))},
		},
	}
}

// CNOT returns a CNOT with the given control and target.
func CNOT(control, target int) Gate {
	return Gate{Kind: KindCNOT, Q: target, Q2: control, Label: "CX"}
}

// Circuit is an ordered gate list on N qubits.
type Circuit struct {
	N     int
	Gates []Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit { return &Circuit{N: n} }

// Append adds gates to the end of the circuit.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		if g.Q < 0 || g.Q >= c.N || (g.Kind == KindCNOT && (g.Q2 < 0 || g.Q2 >= c.N || g.Q2 == g.Q)) {
			panic(fmt.Sprintf("circuit: bad gate %+v on %d qubits", g, c.N))
		}
		c.Gates = append(c.Gates, g)
	}
}

// CNOTCount returns the number of CNOT gates.
func (c *Circuit) CNOTCount() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Kind == KindCNOT {
			n++
		}
	}
	return n
}

// SingleCount returns the number of single-qubit (U3) gates.
func (c *Circuit) SingleCount() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Kind == KindSingle {
			n++
		}
	}
	return n
}

// Depth returns the circuit depth under ASAP scheduling: each gate occupies
// one layer on every qubit it touches.
func (c *Circuit) Depth() int {
	level := make([]int, c.N)
	depth := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		l := level[g.Q]
		if g.Kind == KindCNOT && level[g.Q2] > l {
			l = level[g.Q2]
		}
		l++
		level[g.Q] = l
		if g.Kind == KindCNOT {
			level[g.Q2] = l
		}
		if l > depth {
			depth = l
		}
	}
	return depth
}

// String renders a short textual form, e.g. "H q0; CX q0→q1; RZ(0.5) q1".
func (c *Circuit) String() string {
	parts := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		if g.Kind == KindCNOT {
			parts[i] = fmt.Sprintf("CX q%d→q%d", g.Q2, g.Q)
		} else {
			parts[i] = fmt.Sprintf("%s q%d", g.Label, g.Q)
		}
	}
	return strings.Join(parts, "; ")
}

// Stats bundles the three circuit metrics the paper reports.
type Stats struct {
	CNOTs   int
	Singles int
	Depth   int
}

// Stats returns the metric bundle.
func (c *Circuit) Stats() Stats {
	return Stats{CNOTs: c.CNOTCount(), Singles: c.SingleCount(), Depth: c.Depth()}
}

// mulMat multiplies two 2×2 complex matrices.
func mulMat(a, b [2][2]complex128) [2][2]complex128 {
	var r [2][2]complex128
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j]
		}
	}
	return r
}

// isIdentityMat reports whether m is the identity up to global phase.
func isIdentityMat(m [2][2]complex128) bool {
	if cmplx.Abs(m[0][1]) > 1e-10 || cmplx.Abs(m[1][0]) > 1e-10 {
		return false
	}
	// Diagonal: equal phases ⇒ global phase only.
	return cmplx.Abs(m[0][0]-m[1][1]) < 1e-10 && math.Abs(cmplx.Abs(m[0][0])-1) < 1e-10
}
