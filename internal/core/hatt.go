package core

import (
	"context"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/tree"
)

// Result bundles a constructed mapping with its tree and the Pauli weight
// the construction predicted (which equals the weight of the mapped qubit
// Hamiltonian).
type Result struct {
	Mapping         *mapping.Mapping
	Tree            *tree.Tree
	PredictedWeight int
}

// BuildUnopt runs Algorithm 1: the plain Hamiltonian-adaptive bottom-up
// construction. At each of the N steps it examines every 3-subset of the
// active node set (the X/Y/Z role split does not affect the settled weight,
// so unordered subsets suffice — the paper's permutation enumeration visits
// the same candidates six times each) and merges the subset minimizing the
// Pauli weight settled on that step's qubit. O(N⁴) overall. The resulting
// mapping is *not* vacuum-state preserving in general.
func BuildUnopt(mh *fermion.MajoranaHamiltonian) *Result {
	//hatt:lint-ignore ctxflow compat wrapper: the Ctx variant is the library API
	res, err := BuildUnoptCtx(context.Background(), mh, UnoptOptions{})
	if err != nil {
		panic(err)
	}
	return res
}

// UnoptOptions configures BuildUnoptCtx.
type UnoptOptions struct {
	// Bound, when non-nil, is a shared portfolio incumbent consulted once
	// per construction step: the scan returns ErrBounded as soon as the
	// accumulated settled weight proves the final mapping cannot win the
	// lexicographic (weight, BoundPos) race. Abandonment is all-or-nothing
	// — the pairwise-delta prune and triple selection are untouched — so
	// the portfolio winner stays byte-identical at any timing.
	Bound *Bound
	// BoundPos is this search's position in the portfolio's canonical
	// racer order, the tie-break key of the (weight, position) race.
	BoundPos int
}

// BuildUnoptCtx is BuildUnopt with context cancellation (checked once per
// construction step) and optional portfolio-bound abandonment.
func BuildUnoptCtx(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts UnoptOptions) (*Result, error) {
	b, err := buildUnoptScan(ctx, newProblem(mh), opts)
	if err != nil {
		return nil, err
	}
	t := b.finish()
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("HATT-unopt", t),
		Tree:            t,
		PredictedWeight: b.predicted,
	}, nil
}

// buildUnoptBuilder is the context-free pruned scan, kept for callers
// with no cancellation surface (differential tests, the exhaustive-search
// seed). It cannot fail: with no context and no bound there is no early
// exit.
func buildUnoptBuilder(p *problem) *builder {
	//hatt:lint-ignore ctxflow compat wrapper: the ctx-aware scan is the library path
	b, err := buildUnoptScan(context.Background(), p, UnoptOptions{})
	if err != nil {
		panic(err)
	}
	return b
}

func buildUnoptScan(ctx context.Context, p *problem, opts UnoptOptions) (*builder, error) {
	b := newBuilder(p)
	n := p.n
	// Pairwise symmetric-difference popcounts over all node IDs, filled
	// once for the leaves and extended by one row per merge. For any third
	// node c, settledWeight(a,b,c) ≥ delta[a][b] (see symDiffWeight), so
	// the table prunes candidate triples below the incumbent without
	// touching their bitsets. The selection is identical to the unpruned
	// scan: pruned triples can never satisfy the strict w < bestW update.
	ids := 3*n + 1
	delta := make([]int32, ids*ids)
	for ai := 0; ai <= 2*n; ai++ {
		for bi := ai + 1; bi <= 2*n; bi++ {
			d := int32(symDiffWeight(b.bits[ai], b.bits[bi]))
			delta[ai*ids+bi] = d
			delta[bi*ids+ai] = d
		}
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// b.predicted only grows, so once it proves the race lost the
		// whole scan is abandoned.
		if opts.Bound.Unbeatable(b.predicted, opts.BoundPos) {
			return nil, ErrBounded
		}
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		u := b.u
		for ai := 0; ai < len(u); ai++ {
			da := delta[u[ai]*ids:]
			for bi := ai + 1; bi < len(u); bi++ {
				if int(da[u[bi]]) >= bestW {
					continue // no third node can beat the incumbent
				}
				db := delta[u[bi]*ids:]
				for ci := bi + 1; ci < len(u); ci++ {
					if int(da[u[ci]]) >= bestW || int(db[u[ci]]) >= bestW {
						continue
					}
					w := settledWeight(b.bits[u[ai]], b.bits[u[bi]], b.bits[u[ci]])
					if w < bestW {
						bestW = w
						bx, by, bz = u[ai], u[bi], u[ci]
					}
				}
			}
		}
		b.merge(i, bx, by, bz)
		pid := 2*n + 1 + i
		for _, id := range b.u {
			if id == pid {
				continue
			}
			d := int32(symDiffWeight(b.bits[pid], b.bits[id]))
			delta[pid*ids+id] = d
			delta[id*ids+pid] = d
		}
	}
	return b, nil
}

// buildUnoptReference is the unpruned Algorithm 1 scan, kept as the
// differential oracle for the prune (tests assert merge-schedule equality)
// and as the before-side of the BuildUnopt benchmark.
func buildUnoptReference(p *problem) *builder {
	b := newBuilder(p)
	n := p.n
	for i := 0; i < n; i++ {
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		u := b.u
		for ai := 0; ai < len(u); ai++ {
			for bi := ai + 1; bi < len(u); bi++ {
				for ci := bi + 1; ci < len(u); ci++ {
					w := settledWeight(b.bits[u[ai]], b.bits[u[bi]], b.bits[u[ci]])
					if w < bestW {
						bestW = w
						bx, by, bz = u[ai], u[bi], u[ci]
					}
				}
			}
		}
		b.merge(i, bx, by, bz)
	}
	return b
}

// BuildUnoptReference runs BuildUnopt without the pairwise-delta prune.
// It exists for differential tests and before/after benchmarks; use
// BuildUnopt everywhere else.
func BuildUnoptReference(mh *fermion.MajoranaHamiltonian) *Result {
	b := buildUnoptReference(newProblem(mh))
	t := b.finish()
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("HATT-unopt", t),
		Tree:            t,
		PredictedWeight: b.predicted,
	}
}

// Build runs the optimized HATT construction (Algorithms 2 and 3): at each
// step only (O_X, O_Z) pairs are enumerated, with O_Y derived from the
// Z-descendant caches so that the X child's Z-descendant leaf 2l pairs with
// leaf 2l+1 under the Y child. This guarantees every Majorana pair
// (M_2l, M_2l+1) shares an (X,Y) letter pair on one qubit and acts
// |0⟩-equivalently elsewhere — vacuum-state preservation — while keeping
// the greedy weight minimization. O(N³) overall.
//
// Candidate enumeration detail: the paper iterates ordered (O_X, O_Z) pairs
// and swaps roles when descZ(O_X) is odd; the swapped triple coincides with
// the triple generated directly from the even-descendant partner, so this
// implementation enumerates only nodes with even Z-descendants (≠ 2N) as
// O_X, visiting the same candidate set once.
//
// Each step merges the first minimal candidate in that enumeration order.
// Build finds it with an incremental argmin instead of rescoring every
// candidate (see hattScan): each O_X keeps its best O_Z across steps, and
// after a merge only the pairs whose O_Y changed are rescanned, the pairs
// whose cached O_Z was merged away resume past it, and every other pair
// scores only the triple with the new parent. Candidates sharing no term
// with the pair score from popcounts. The search runs on the calling
// goroutine.
//
// Build memoizes completed constructions (see memo.go): repeated calls
// on an identical Hamiltonian replay the cached merge schedule instead of
// re-running the greedy search, returning a fresh tree and mapping each
// time. BuildUncached additionally skips the memo.
func Build(mh *fermion.MajoranaHamiltonian) *Result {
	return BuildWithOptions(mh, BuildOptions{})
}

// BuildUncached runs Algorithm 2 *without* the Algorithm 3 caches: the
// Z-descendant and ancestor lookups walk the tree explicitly, giving the
// O(N⁴) variant whose runtime Figure 12 compares against. The produced
// mapping is identical to Build's.
func BuildUncached(mh *fermion.MajoranaHamiltonian) *Result {
	p := newProblem(mh)
	b := newBuilder(p)
	n := p.n
	inU := make([]bool, 3*n+1)
	for _, id := range b.u {
		inU[id] = true
	}
	for i := 0; i < n; i++ {
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		found := false
		for _, ox := range b.u {
			x := b.nodes[ox].DescZ().ID // O(depth) walk down
			if x%2 == 1 || x == 2*n {
				continue
			}
			// O(depth) walk up from leaf x+1 to its ancestor in U.
			anc := b.nodes[x+1]
			for !inU[anc.ID] {
				anc = anc.Parent
			}
			oy := anc.ID
			if oy == ox {
				continue
			}
			for _, oz := range b.u {
				if oz == ox || oz == oy {
					continue
				}
				w := settledWeight(b.bits[ox], b.bits[oy], b.bits[oz])
				if w < bestW {
					bestW = w
					bx, by, bz = ox, oy, oz
					found = true
				}
			}
		}
		if !found {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		inU[bx], inU[by], inU[bz] = false, false, false
		inU[2*n+1+i] = true
		b.merge(i, bx, by, bz)
	}
	t := b.finish()
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("HATT-uncached", t),
		Tree:            t,
		PredictedWeight: b.predicted,
	}
}
