package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/parallel"
	"repro/internal/tree"
)

// AnnealOptions configures the simulated-annealing search. Zero values get
// sensible defaults.
type AnnealOptions struct {
	Iters  int     // mutation attempts per chain (default 2000·N)
	TStart float64 // initial temperature (default 2.0)
	TEnd   float64 // final temperature (default 0.01)
	Seed   int64   // RNG seed (default 1)
	// Restarts runs that many independent annealing chains (default 1);
	// chain k is seeded with Seed+k and the lowest-weight result wins,
	// earliest chain on ties. The winner depends only on Seed, Restarts,
	// and the schedule — never on Workers.
	Restarts int
	// Workers bounds how many chains run concurrently; values below 2
	// run the chains sequentially, matching the zero-value semantics of
	// BeamOptions.Workers. It has no effect on the result.
	Workers int
	// Progress, when non-nil, is invoked periodically (roughly every 1% of
	// the schedule) with the current iteration, the total iteration count,
	// and the best weight found so far. With Restarts > 1 only the first
	// chain reports, keeping the callback single-goroutine.
	Progress func(iter, iters, bestWeight int)
	// OnImprove, when non-nil, receives a freshly assembled Result each
	// time a chain's best weight has improved at a progress stride. The
	// delivered tree is the chain's retired best snapshot — it is never
	// mutated afterwards — so callers may hold it indefinitely. With
	// Restarts > 1 every chain reports concurrently and improvements are
	// only monotone per chain, so the callback must be safe for concurrent
	// use and must tolerate non-improving deliveries across chains.
	OnImprove func(*Result)
	// Bound, when non-nil, is a shared portfolio incumbent. Annealing has
	// no nontrivial lower bound on its final weight — the best-so-far only
	// decreases — so the only sound abandonment uses the universal floor
	// (one Pauli letter per non-identity Hamiltonian term): a chain stops
	// early iff even a floor-weight mapping could no longer win the
	// lexicographic (weight, BoundPos) race. Stopped chains return their
	// best-so-far result, which by construction cannot win, leaving the
	// portfolio winner untouched.
	Bound *Bound
	// BoundPos is this search's position in the portfolio's canonical
	// racer order, the tie-break key of the (weight, position) race.
	BoundPos int
}

// Anneal runs AnnealCtx with a background context. It never returns an
// error: a panic inside a restart chain is re-raised rather than
// silently returning nil.
func Anneal(mh *fermion.MajoranaHamiltonian, opts AnnealOptions) *Result {
	//hatt:lint-ignore ctxflow compat wrapper: the Ctx variant is the library API
	res, err := AnnealCtx(context.Background(), mh, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// AnnealCtx refines the greedy HATT-unopt tree by simulated annealing over
// tree space: the mutation swaps two random non-root nodes that are not in
// ancestor/descendant relation, which reaches every complete ternary tree
// shape and leaf placement. It stands in for Fermihedral's approximate
// ('*') solutions at sizes where the exhaustive search is infeasible.
// The result keeps the leaf-ID-to-Majorana assignment, so like Fermihedral
// it does not guarantee vacuum-state preservation.
//
// The context is checked on every mutation attempt; on cancellation the
// search stops within one iteration and returns (nil, ctx.Err()).
//
// With Restarts > 1 the chains run concurrently over a bounded worker
// pool (Workers wide) and the best result is selected deterministically,
// so a fixed Seed yields a byte-identical mapping at any Workers value.
func AnnealCtx(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts AnnealOptions) (*Result, error) {
	if opts.Iters == 0 {
		opts.Iters = 2000 * mh.Modes
	}
	if opts.TStart == 0 {
		opts.TStart = 2.0
	}
	if opts.TEnd == 0 {
		opts.TEnd = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Restarts < 1 {
		opts.Restarts = 1
	}
	if opts.Restarts == 1 {
		return annealChain(ctx, mh, opts)
	}
	results, err := parallel.Map(ctx, opts.Restarts, max(1, opts.Workers), func(k int) (*Result, error) {
		chain := opts
		chain.Seed = opts.Seed + int64(k)
		if k != 0 {
			chain.Progress = nil
		}
		return annealChain(ctx, mh, chain)
	})
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.PredictedWeight < best.PredictedWeight {
			best = r
		}
	}
	return best, nil
}

// annealChain runs one simulated-annealing chain to completion (or to
// bound-driven early exit).
func annealChain(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts AnnealOptions) (*Result, error) {
	p := newProblem(mh)
	ub, err := buildUnoptScan(ctx, newProblem(mh), UnoptOptions{})
	if err != nil {
		return nil, err
	}
	cur := ub.finish()
	curW := p.evaluateTree(cur)
	best := cloneTree(cur)
	bestW := curW
	// Every non-identity term settles at least one Pauli letter under any
	// tree, so nTerms floors every weight this chain could ever reach.
	floor := p.nTerms
	emitted := int(^uint(0) >> 1) // emit the start tree at the first stride

	r := rand.New(rand.NewSource(opts.Seed))
	all := collectNodes(cur)
	cool := math.Pow(opts.TEnd/opts.TStart, 1/math.Max(1, float64(opts.Iters-1)))
	temp := opts.TStart
	stride := opts.Iters / 100
	if stride < 1 {
		stride = 1
	}
	for it := 0; it < opts.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if it%stride == 0 {
			if opts.Progress != nil {
				opts.Progress(it, opts.Iters, bestW)
			}
			if opts.OnImprove != nil && bestW < emitted {
				emitted = bestW
				opts.OnImprove(annealResult(best, bestW))
			}
			if opts.Bound.Unbeatable(floor, opts.BoundPos) {
				break // cannot win even at the floor; best-so-far stands
			}
		}
		a := all[r.Intn(len(all))]
		b := all[r.Intn(len(all))]
		if a == b || a.Parent == nil || b.Parent == nil || related(a, b) {
			temp *= cool
			continue
		}
		swapNodes(a, b)
		w := p.evaluateTree(cur)
		delta := float64(w - curW)
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			curW = w
			if w < bestW {
				bestW = w
				best = cloneTree(cur)
			}
		} else {
			swapNodes(a, b) // revert
		}
		temp *= cool
	}
	if opts.Progress != nil {
		opts.Progress(opts.Iters, opts.Iters, bestW)
	}
	return annealResult(best, bestW), nil
}

// annealResult assembles a Result around a retired best-so-far snapshot.
// The tree is never mutated after it was cloned into place, so the
// mapping and the Result may outlive the chain.
func annealResult(best *tree.Tree, bestW int) *Result {
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("FH-anneal", best),
		Tree:            best,
		PredictedWeight: bestW,
	}
}

// related reports whether one node is an ancestor of the other.
func related(a, b *tree.Node) bool {
	for n := a; n != nil; n = n.Parent {
		if n == b {
			return true
		}
	}
	for n := b; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// swapNodes exchanges the tree positions of two unrelated non-root nodes.
func swapNodes(a, b *tree.Node) {
	pa, ba := a.Parent, a.PBranch
	pb, bb := b.Parent, b.PBranch
	pa.Child[ba] = b
	b.Parent, b.PBranch = pa, ba
	pb.Child[bb] = a
	a.Parent, a.PBranch = pb, bb
}

// collectNodes returns all nodes of the tree.
func collectNodes(t *tree.Tree) []*tree.Node {
	var out []*tree.Node
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		out = append(out, n)
		if n.IsLeaf() {
			return
		}
		for _, c := range n.Child {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// cloneTree deep-copies a tree, preserving IDs, qubits, and leaf indexing.
func cloneTree(t *tree.Tree) *tree.Tree {
	c := &tree.Tree{N: t.N, Leaves: make([]*tree.Node, len(t.Leaves))}
	var walk func(n *tree.Node) *tree.Node
	walk = func(n *tree.Node) *tree.Node {
		nn := &tree.Node{ID: n.ID, Qubit: n.Qubit, PBranch: n.PBranch}
		if n.IsLeaf() {
			c.Leaves[n.ID] = nn
			return nn
		}
		for i, ch := range n.Child {
			cc := walk(ch)
			nn.Child[i] = cc
			cc.Parent = nn
		}
		return nn
	}
	c.Root = walk(t.Root)
	return c
}
