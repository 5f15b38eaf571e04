package core

import (
	"context"
	"errors"
	"sort"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/parallel"
	"repro/internal/tree"
)

// BuildBeam runs BuildBeamCtx with a background context. It never
// returns an error: a panic inside a pool worker is re-raised rather
// than silently returning nil.
func BuildBeam(mh *fermion.MajoranaHamiltonian, width int) *Result {
	//hatt:lint-ignore ctxflow compat wrapper: the Ctx variant is the library API
	res, err := BuildBeamCtx(context.Background(), mh, width)
	if err != nil {
		panic(err)
	}
	return res
}

// BeamOptions configures BuildBeamOpts.
type BeamOptions struct {
	// Width is the number of partial trees kept per step (minimum 1).
	Width int
	// Workers fans candidate scoring out over a bounded pool; values
	// below 2 keep the scan sequential. The search result is identical
	// at every worker count.
	Workers int
	// Bound, when non-nil, is a shared portfolio incumbent consulted once
	// per construction step against the minimum accumulated weight across
	// the live beam (a lower bound on every completion this beam can still
	// reach). On abandonment the greedy incumbent path is still attempted
	// under the same bound, because beam pruning may have discarded the
	// greedy trajectory; if that too is unbeatable the search returns
	// ErrBounded. Abandonment is whole-search only — the bound never
	// perturbs candidate scoring or beam composition — so the portfolio
	// winner stays byte-identical at any worker count or timing.
	Bound *Bound
	// BoundPos is this search's position in the portfolio's canonical
	// racer order, the tie-break key of the (weight, position) race.
	BoundPos int
}

// BuildBeamCtx generalizes the optimized HATT construction from greedy
// (beam width 1, equivalent to Build) to beam search: at every step the
// `width` best partial trees by accumulated settled weight are kept, each
// expanded through the same vacuum-preserving candidate enumeration as
// Algorithm 2. This explores the future-work axis the paper leaves open —
// trading construction time (×width) for mapping quality — while keeping
// vacuum-state preservation. Ties collapse deterministically.
//
// The context is checked before each beam state is expanded; on
// cancellation the search stops within one state expansion and
// (nil, ctx.Err()) is returned.
func BuildBeamCtx(ctx context.Context, mh *fermion.MajoranaHamiltonian, width int) (*Result, error) {
	return BuildBeamOpts(ctx, mh, BeamOptions{Width: width})
}

// BuildBeamOpts is BuildBeamCtx with candidate scoring fanned out over a
// bounded worker pool. Candidates are enumerated in a deterministic order
// and scored into an index-addressed slice, and the beam is pruned with a
// stable sort, so the search — and the returned mapping — is byte-
// identical at every Workers value.
func BuildBeamOpts(ctx context.Context, mh *fermion.MajoranaHamiltonian, opt BeamOptions) (*Result, error) {
	width := opt.Width
	if width < 1 {
		width = 1
	}
	p := newProblem(mh)
	n := p.n
	beams := []*beamState{newBeamState(p)}
	type cand struct {
		parent     *beamState
		ox, oy, oz int
		acc        int
	}
	var cands []cand
	bounded := false
	for i := 0; i < n; i++ {
		// The minimum accumulated weight across the live beam bounds every
		// completion still reachable from it; once that loses the race the
		// whole beam is abandoned (the greedy incumbent below still runs).
		minAcc := beams[0].acc
		for _, st := range beams[1:] {
			if st.acc < minAcc {
				minAcc = st.acc
			}
		}
		if opt.Bound.Unbeatable(minAcc, opt.BoundPos) {
			bounded = true
			break
		}
		// Enumerate expansions sequentially (cheap index work, fixes the
		// candidate order)...
		cands = cands[:0]
		for _, st := range beams {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, ox := range st.u {
				x := st.mdown[ox]
				if x%2 == 1 || x == 2*n {
					continue
				}
				oy := st.mup[x+1]
				if oy == ox {
					continue
				}
				for _, oz := range st.u {
					if oz == ox || oz == oy {
						continue
					}
					cands = append(cands, cand{st, ox, oy, oz, 0})
				}
			}
		}
		// ...then score them in parallel: settledWeight over the term
		// bitsets is the hot loop, and each task only reads beam state.
		workers := max(1, opt.Workers)
		if len(cands) < scoreFanoutCutoff {
			workers = 1 // dispatch would cost more than the scoring
		}
		if err := parallel.ForEachChunk(ctx, len(cands), workers, func(lo, hi int) error {
			for j := lo; j < hi; j++ {
				c := &cands[j]
				st := c.parent
				c.acc = st.acc + settledWeight(st.bits[c.ox], st.bits[c.oy], st.bits[c.oz])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].acc < cands[b].acc })
		if len(cands) > width {
			cands = cands[:width]
		}
		next := make([]*beamState, 0, len(cands))
		for _, c := range cands {
			child := c.parent.clone()
			child.merge(p, i, c.ox, c.oy, c.oz)
			next = append(next, child)
		}
		beams = next
	}
	if bounded && width == 1 {
		return nil, ErrBounded
	}
	var best *beamState
	if !bounded {
		best = beams[0]
		for _, st := range beams[1:] {
			if st.acc < best.acc {
				best = st
			}
		}
	}
	// Beam search can prune the greedy path (it keeps the global top-k by
	// accumulated weight, which need not contain greedy's trajectory), so
	// keep the greedy result as an incumbent: BuildBeam never returns a
	// worse mapping than Build. The incumbent shares this search's
	// context and portfolio bound.
	if width > 1 {
		greedy, err := BuildWithOptionsCtx(ctx, mh, BuildOptions{
			Bound: opt.Bound, BoundPos: opt.BoundPos,
		})
		switch {
		case errors.Is(err, ErrBounded):
			// The greedy incumbent lost the race on its own; if the beam
			// was abandoned too there is nothing left worth returning.
			if bounded {
				return nil, ErrBounded
			}
		case err != nil:
			return nil, err
		case bounded || greedy.PredictedWeight < best.acc:
			greedy.Mapping.Name = "HATT-beam"
			return greedy, nil
		}
	}
	t := best.buildTree(p)
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("HATT-beam", t),
		Tree:            t,
		PredictedWeight: best.acc,
	}, nil
}

// beamState is an immutable-by-convention partial construction: cloned
// before every merge.
type beamState struct {
	bits   map[int]termBits
	u      []int
	mdown  map[int]int
	mup    map[int]int
	merges [][3]int
	acc    int
}

func newBeamState(p *problem) *beamState {
	st := &beamState{
		bits:  make(map[int]termBits, 2*p.n+1),
		u:     make([]int, 2*p.n+1),
		mdown: make(map[int]int, 3*p.n+1),
		mup:   make(map[int]int, 2*p.n+1),
	}
	for id := 0; id <= 2*p.n; id++ {
		st.bits[id] = p.leafBits[id]
		st.u[id] = id
		st.mdown[id] = id
		st.mup[id] = id
	}
	return st
}

func (st *beamState) clone() *beamState {
	c := &beamState{
		bits:   make(map[int]termBits, len(st.bits)),
		u:      append([]int{}, st.u...),
		mdown:  make(map[int]int, len(st.mdown)),
		mup:    make(map[int]int, len(st.mup)),
		merges: append([][3]int{}, st.merges...),
		acc:    st.acc,
	}
	for k, v := range st.bits {
		c.bits[k] = v // shared until replaced (bitsets are never mutated)
	}
	for k, v := range st.mdown {
		c.mdown[k] = v
	}
	for k, v := range st.mup {
		c.mup[k] = v
	}
	return c
}

func (st *beamState) merge(p *problem, step, ox, oy, oz int) {
	pid := 2*p.n + 1 + step
	st.acc += settledWeight(st.bits[ox], st.bits[oy], st.bits[oz])
	pb := newTermBits(p.words)
	for w := range pb {
		pb[w] = st.bits[ox][w] ^ st.bits[oy][w] ^ st.bits[oz][w]
	}
	st.bits[pid] = pb
	delete(st.bits, ox)
	delete(st.bits, oy)
	delete(st.bits, oz)
	nu := st.u[:0:0]
	for _, v := range st.u {
		if v != ox && v != oy && v != oz {
			nu = append(nu, v)
		}
	}
	st.u = append(nu, pid)
	zd := st.mdown[oz]
	st.mdown[pid] = zd
	st.mup[zd] = pid
	st.merges = append(st.merges, [3]int{ox, oy, oz})
}

func (st *beamState) buildTree(p *problem) *tree.Tree {
	n := p.n
	nodes := make([]*tree.Node, 3*n+1)
	for id := 0; id <= 2*n; id++ {
		nodes[id] = &tree.Node{ID: id}
	}
	for i, m := range st.merges {
		pid := 2*n + 1 + i
		parent := &tree.Node{ID: pid, Qubit: i}
		parent.SetChildren(nodes[m[0]], nodes[m[1]], nodes[m[2]])
		nodes[pid] = parent
	}
	t := &tree.Tree{N: n, Root: nodes[3*n], Leaves: make([]*tree.Node, 2*n+1)}
	copy(t.Leaves, nodes[:2*n+1])
	return t
}
