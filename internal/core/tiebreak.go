package core

import (
	"context"
	"math/bits"

	"repro/internal/fermion"
	"repro/internal/mapping"
)

// TieBreak selects the secondary objective used when several candidate
// merges settle the same Pauli weight on the current qubit. The paper's
// algorithm leaves ties unspecified; the default reproduces
// first-in-enumeration-order. The alternatives are the ablation axes
// DESIGN.md calls out.
type TieBreak int

const (
	// TieFirst keeps the first minimal candidate in enumeration order
	// (the behavior of Build).
	TieFirst TieBreak = iota
	// TieDepth prefers the merge whose new subtree is shallowest, pushing
	// toward balanced trees (lower maximum string weight, hence shallower
	// circuits) among equal-weight choices.
	TieDepth
	// TieSupport prefers the merge whose parent participates in the fewest
	// remaining Hamiltonian terms, preserving flexibility for future
	// cancellation.
	TieSupport
)

// BuildOptions configures BuildWithOptions / BuildWithOptionsCtx.
type BuildOptions struct {
	TieBreak TieBreak
	// NoMemo bypasses the build memo, forcing a full construction. Used
	// by benchmarks that time the search itself.
	NoMemo bool
	// Bound, when non-nil, is a shared portfolio incumbent consulted once
	// per construction step: the search returns ErrBounded as soon as the
	// accumulated settled weight proves the final mapping cannot win the
	// lexicographic (weight, BoundPos) race. Abandonment is all-or-nothing
	// — it never alters which merges a surviving search selects — so the
	// portfolio winner stays byte-identical at any timing.
	Bound *Bound
	// BoundPos is this search's position in the portfolio's canonical
	// racer order, the tie-break key of the (weight, position) race.
	BoundPos int
}

// BuildWithOptions is BuildWithOptionsCtx with a background context. It
// panics if opts.Bound abandons the search; callers racing a bound use
// BuildWithOptionsCtx.
func BuildWithOptions(mh *fermion.MajoranaHamiltonian, opts BuildOptions) *Result {
	//hatt:lint-ignore ctxflow compat wrapper: the Ctx variant is the library API
	res, err := BuildWithOptionsCtx(context.Background(), mh, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BuildWithOptionsCtx is Build (Algorithms 2+3) with a configurable
// tie-breaking policy. BuildWithOptionsCtx(ctx, mh, BuildOptions{})
// selects exactly the merges Build selects.
//
// The search is an incremental argmin (see hattScan): each O_X keeps its
// best O_Z across steps, so a step rescores only the pairs the last merge
// disturbed plus one new triple per other pair, instead of every
// candidate triple. It selects exactly the first minimal candidate, in
// enumeration order, that a full rescan of every step would select, and
// runs on the calling goroutine.
//
// Completed constructions are memoized (see memo.go) unless NoMemo is
// set; the context is checked once per construction step, so
// cancellation returns (nil, ctx.Err()) within one step.
func BuildWithOptionsCtx(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts BuildOptions) (*Result, error) {
	canon := canonicalKey(mh)
	key := buildMemoKey{fp: fingerprint(canon), tb: opts.TieBreak}
	if !opts.NoMemo {
		e, hit, release, err := memoAcquire(ctx, key, canon)
		if err != nil {
			return nil, err
		}
		if hit {
			return e.replay(mh), nil
		}
		defer release()
	}
	buildSearches.Add(1)
	s, err := runHattScan(ctx, newProblem(mh), opts)
	if err != nil {
		return nil, err
	}
	if !opts.NoMemo {
		memoStore(key, canon, s.b.log)
	}
	t := s.b.finish()
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("HATT", t),
		Tree:            t,
		PredictedWeight: s.b.predicted,
	}, nil
}

// hattScan is the incremental argmin behind BuildWithOptionsCtx. A
// node's term bitset never changes after the node is created, so a
// triple's key — its settled weight, then the TieBreak value — is the
// same at every step where the triple is a candidate. Each active O_X
// with a valid partner O_Y therefore caches the best key over its O_Z
// candidates and the first O_Z in U order reaching it; after a merge only
// the pairs whose O_Y changed or whose cached O_Z left U are rescanned,
// and every other pair scores just the one new triple (O_X, O_Y, parent).
type hattScan struct {
	b     *builder
	tb    TieBreak
	depth []int // node ID -> subtree depth (leaves 0), for TieDepth
	// Per-O_X cache, indexed by node ID; y < 0 marks a node that is not
	// a valid O_X.
	y, z   []int
	w, tie []int
	// scored counts settledWeight calls, the cost the incremental scan
	// saves over rescoring every candidate triple each step.
	scored int
}

func runHattScan(ctx context.Context, p *problem, opts BuildOptions) (*hattScan, error) {
	b := newBuilder(p)
	n := p.n
	ids := 3*n + 1
	s := &hattScan{
		b:     b,
		tb:    opts.TieBreak,
		depth: make([]int, ids),
		y:     make([]int, ids),
		z:     make([]int, ids),
		w:     make([]int, ids),
		tie:   make([]int, ids),
	}
	for _, ox := range b.u {
		s.y[ox] = -1
		if oy := s.partner(ox); oy >= 0 {
			s.rescan(ox, oy)
		}
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// b.predicted only grows, so once it proves the race lost the whole
		// search is abandoned (never stored in the memo: the caller's memo
		// release wakes any waiter to take over the construction).
		if opts.Bound.Unbeatable(b.predicted, opts.BoundPos) {
			return nil, ErrBounded
		}
		// The first O_X in U order holding the minimal key; its cached O_Z
		// is the first minimal O_Z, so this is the first minimal triple in
		// (O_X, O_Z) enumeration order.
		ox := -1
		for _, c := range b.u {
			if s.y[c] >= 0 && (ox < 0 || s.w[c] < s.w[ox] || s.w[c] == s.w[ox] && s.tie[c] < s.tie[ox]) {
				ox = c
			}
		}
		if ox < 0 {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		oy, oz := s.y[ox], s.z[ox]
		pid := 2*n + 1 + i
		s.depth[pid] = 1 + max3(s.depth[ox], s.depth[oy], s.depth[oz])
		b.merge(i, ox, oy, oz)
		s.update(pid, ox, oy, oz)
	}
	return s, nil
}

// partner returns O_X's vacuum-pairing O_Y — the U ancestor of the leaf
// after O_X's Z-descendant — or -1 when ox cannot serve as O_X.
func (s *hattScan) partner(ox int) int {
	b := s.b
	x := b.mdown[ox]
	if x%2 == 1 || x == 2*b.p.n {
		return -1
	}
	if oy := b.mup[x+1]; oy != ox {
		return oy
	}
	return -1
}

// tieKey is the TieBreak value of a candidate triple.
func (s *hattScan) tieKey(ox, oy, oz int) int {
	switch s.tb {
	case TieDepth:
		return 1 + max3(s.depth[ox], s.depth[oy], s.depth[oz])
	case TieSupport:
		return parentSupport(s.b.bits[ox], s.b.bits[oy], s.b.bits[oz])
	}
	return 0
}

// offer scores (ox, oy, oz) against ox's cached best, replacing it only
// on a strictly smaller key: oz comes after every earlier candidate in U
// order, so an equal key keeps the earlier one.
func (s *hattScan) offer(ox, oy, oz int) {
	s.scored++
	w := settledWeight(s.b.bits[ox], s.b.bits[oy], s.b.bits[oz])
	if w > s.w[ox] {
		return
	}
	if t := s.tieKey(ox, oy, oz); w < s.w[ox] || t < s.tie[ox] {
		s.w[ox], s.tie[ox], s.z[ox] = w, t, oz
	}
}

// rescan rebuilds ox's cache entry from every O_Z candidate in U.
func (s *hattScan) rescan(ox, oy int) {
	s.y[ox], s.z[ox] = oy, -1
	s.w[ox], s.tie[ox] = int(^uint(0)>>1), int(^uint(0)>>1)
	for _, oz := range s.b.u {
		if oz != ox && oz != oy {
			s.offer(ox, oy, oz)
		}
	}
}

// update refreshes the cache after merge (ox, oy, oz) created pid.
func (s *hattScan) update(pid, ox, oy, oz int) {
	for _, c := range s.b.u {
		cy := s.partner(c)
		switch {
		case cy < 0:
			s.y[c] = -1
		case c == pid || cy != s.y[c] || s.z[c] == ox || s.z[c] == oy || s.z[c] == oz:
			s.rescan(c, cy)
		default:
			s.offer(c, cy, pid)
		}
	}
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// parentSupport counts the terms the merged parent would still touch.
func parentSupport(bx, by, bz termBits) int {
	s := 0
	for i := range bx {
		s += bits.OnesCount64(bx[i] ^ by[i] ^ bz[i])
	}
	return s
}
