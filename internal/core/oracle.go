// Package core implements the paper's primary contribution: the
// Hamiltonian-Adaptive Ternary Tree (HATT) construction of fermion-to-qubit
// mappings, in both the unoptimized form (Algorithm 1, O(N⁴), no vacuum
// guarantee) and the optimized form (Algorithms 2+3: vacuum-state
// preservation through operator pairing plus O(1) Z-descendant caches,
// O(N³) total). It also provides the Fermihedral stand-ins used as the
// optimal/approximate baselines: an exhaustive branch-and-bound search over
// the ternary-tree mapping space and a simulated-annealing local search.
package core

import (
	"math/bits"

	"repro/internal/fermion"
	"repro/internal/tree"
)

// termBits is a bitset over Hamiltonian terms: bit t set means "this node's
// Pauli string participates in term t".
type termBits []uint64

func newTermBits(words int) termBits { return make(termBits, words) }

func (b termBits) clone() termBits {
	c := make(termBits, len(b))
	copy(c, b)
	return c
}

func (b termBits) set(t int) { b[t/64] |= 1 << uint(t%64) }

func (b termBits) xorInto(dst termBits, other termBits) {
	for i := range dst {
		dst[i] = b[i] ^ other[i]
	}
}

// scoreFanoutCutoff is the candidate count below which beam search keeps
// scoring sequential: dispatching a pool over a few dozen settledWeight
// calls costs more than the calls themselves. Above it, the per-chunk
// work dwarfs the dispatch.
const scoreFanoutCutoff = 256

// settledWeight computes the Pauli weight contributed on one qubit when
// nodes with term-membership bitsets bx, by, bz become its X, Y, Z
// children: a term's operator on that qubit is non-identity iff exactly one
// or two of the three nodes appear in it (all three multiply to X·Y·Z ∝ I).
func settledWeight(bx, by, bz termBits) int {
	w := 0
	for i := range bx {
		union := bx[i] | by[i] | bz[i]
		all := bx[i] & by[i] & bz[i]
		w += bits.OnesCount64(union &^ all)
	}
	return w
}

// symDiffWeight is the pairwise lower bound feeding the unopt triple-loop
// prune: |aΔb| = |a∪b| − |a∩b| ≤ |a∪b∪c| − |a∩b∩c| = settledWeight(a,b,c)
// for every third set c, since the union only grows and the intersection
// only shrinks.
func symDiffWeight(a, b termBits) int {
	w := 0
	for i := range a {
		w += bits.OnesCount64(a[i] ^ b[i])
	}
	return w
}

// problem is the preprocessed optimization instance shared by every
// construction in this package: one bitset per Majorana leaf recording the
// Hamiltonian terms that contain it.
type problem struct {
	n      int // modes
	nTerms int
	words  int
	arity  int // the most Majorana indices in one term
	// leafBits[id] for id in 0..2n (leaf 2n exists but never appears in a
	// term: Majorana indices are 0..2n-1).
	leafBits []termBits
}

// newProblem preprocesses a Majorana Hamiltonian (Algorithm 1 line 1):
// identity monomials are dropped; every remaining monomial becomes one term
// bit on each of its Majorana indices.
func newProblem(mh *fermion.MajoranaHamiltonian) *problem {
	n := mh.Modes
	sets := mh.IndexSets()
	p := &problem{n: n, nTerms: len(sets), words: (len(sets) + 63) / 64}
	if p.words == 0 {
		p.words = 1
	}
	p.leafBits = make([]termBits, 2*n+1)
	for id := range p.leafBits {
		p.leafBits[id] = newTermBits(p.words)
	}
	for t, idx := range sets {
		p.arity = max(p.arity, len(idx))
		for _, m := range idx {
			p.leafBits[m].set(t)
		}
	}
	return p
}

// EvaluateTree returns the Pauli weight the qubit Hamiltonian will have
// under the mapping defined by t with leaf-ID-to-Majorana-index assignment
// (leaf i realizes M_i), computed purely combinatorially: for each internal
// node, count the terms in which exactly one or two of its children's
// subtree parities are odd.
func EvaluateTree(mh *fermion.MajoranaHamiltonian, t *tree.Tree) int {
	p := newProblem(mh)
	return p.evaluateTree(t)
}

func (p *problem) evaluateTree(t *tree.Tree) int {
	total := 0
	var walk func(n *tree.Node) termBits
	walk = func(n *tree.Node) termBits {
		if n.IsLeaf() {
			return p.leafBits[n.ID]
		}
		bx := walk(n.Child[tree.BX])
		by := walk(n.Child[tree.BY])
		bz := walk(n.Child[tree.BZ])
		total += settledWeight(bx, by, bz)
		out := newTermBits(p.words)
		for i := range out {
			out[i] = bx[i] ^ by[i] ^ bz[i]
		}
		return out
	}
	walk(t.Root)
	return total
}

// builder holds the mutable bottom-up construction state shared by
// Algorithm 1 and Algorithm 2+3.
type builder struct {
	p     *problem
	bits  []termBits   // node ID -> term bitset (active and historical)
	nodes []*tree.Node // node ID -> node
	u     []int        // active node IDs, ascending
	// Z-descendant caches (Algorithm 3).
	mdown []int // node ID -> descZ leaf ID
	mup   []int // leaf ID -> its ancestor in U
	// predicted accumulates the settled weight over all steps; it equals
	// the Pauli weight of the final qubit Hamiltonian.
	predicted int
	// log records the merge triples in step order.
	log [][3]int
}

func newBuilder(p *problem) *builder {
	n := p.n
	b := &builder{
		p:     p,
		bits:  make([]termBits, 3*n+1),
		nodes: make([]*tree.Node, 3*n+1),
		u:     make([]int, 2*n+1),
		mdown: make([]int, 3*n+1),
		mup:   make([]int, 2*n+1),
	}
	for id := 0; id <= 2*n; id++ {
		b.bits[id] = p.leafBits[id].clone()
		b.nodes[id] = &tree.Node{ID: id}
		b.u[id] = id
		b.mdown[id] = id
		b.mup[id] = id
	}
	return b
}

// removeFromU deletes one ID from the active set, preserving order.
func (b *builder) removeFromU(id int) {
	for i, v := range b.u {
		if v == id {
			b.u = append(b.u[:i], b.u[i+1:]...)
			return
		}
	}
	panic("core: node not in U")
}

// merge performs the step-i update (Algorithm 1 lines 13–16 plus the
// Algorithm 3 cache update): ox, oy, oz become the X, Y, Z children of the
// new internal node for qubit i, and the Hamiltonian reduces by settling
// qubit i.
func (b *builder) merge(i, ox, oy, oz int) {
	n := b.p.n
	pid := 2*n + 1 + i
	parent := &tree.Node{ID: pid, Qubit: i}
	parent.SetChildren(b.nodes[ox], b.nodes[oy], b.nodes[oz])
	b.nodes[pid] = parent

	b.predicted += settledWeight(b.bits[ox], b.bits[oy], b.bits[oz])

	pb := newTermBits(b.p.words)
	for w := range pb {
		pb[w] = b.bits[ox][w] ^ b.bits[oy][w] ^ b.bits[oz][w]
	}
	b.bits[pid] = pb

	b.removeFromU(ox)
	b.removeFromU(oy)
	b.removeFromU(oz)
	b.u = append(b.u, pid) // pid exceeds all current members: stays sorted

	// O(1) cache update: the parent inherits the Z child's Z-descendant.
	zd := b.mdown[oz]
	b.mdown[pid] = zd
	b.mup[zd] = pid

	b.log = append(b.log, [3]int{ox, oy, oz})
}

// finish assembles the completed tree once U has collapsed to the root.
func (b *builder) finish() *tree.Tree {
	if len(b.u) != 1 {
		panic("core: construction incomplete")
	}
	n := b.p.n
	t := &tree.Tree{N: n, Root: b.nodes[b.u[0]], Leaves: make([]*tree.Node, 2*n+1)}
	copy(t.Leaves, b.nodes[:2*n+1])
	return t
}
