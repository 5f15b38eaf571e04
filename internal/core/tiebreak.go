package core

import (
	"context"
	"math/bits"
	"slices"

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
// best O_Z across steps. After a merge, a pair whose O_Y changed is
// rescanned, a pair whose cached O_Z was merged away resumes its scan
// past that O_Z (rescanning the prefix only when no survivor matches the
// old key), and every other pair scores one new triple. An O_Z that
// shares no term with the pair scores in O(1) from popcounts; only O_Z
// candidates that touch the pair's terms pay the word-by-word settled
// weight. Whether to find those through the term index or to score all
// of U word by word is decided per pair from |x∪y|·arity against
// |U|·(words−1), so dense inputs (molecules) and one-word inputs (small
// models) keep the plain scan. It selects exactly the first minimal
// candidate, in enumeration order, that a full rescan of every step
// would select, and runs on the calling goroutine.
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
// candidates and the first O_Z in U order reaching it. After a merge:
//
//   - a pair whose O_Y changed, or a new parent, is rescanned over U;
//   - a pair whose cached O_Z was merged away resumes (refill): the new
//     parent wins if it beats the old key; otherwise every candidate
//     before the old O_Z scored strictly more than the old key and none
//     scores less, so the first survivor after it matching the old key
//     is the answer, and only when none matches is the prefix scanned;
//   - every other pair scores just the one new triple (O_X, O_Y, parent).
//
// Scoring exploits sparsity. When O_Z shares no term with O_X ∪ O_Y its
// settled weight is exactly |x∪y| + |z| and its TieSupport key
// |xΔy| + |z| (TieDepth does not look at terms), so it costs O(1) from
// cached popcounts. A term → active-node index (one CSR array of Σ arity
// slots, built on first use: a term sits in at most as many active nodes
// as it has Majorana indices) marks the nodes touching x∪y; only those
// pay the word-by-word settledWeight. Marking costs about |x∪y|·arity,
// so a pair marks only when that is below the |U|·(words−1) it can save
// (see mark); dense inputs (molecules, whose leaves sit in hundreds of
// terms) keep the plain scan. Once a pair has built the index, the
// step's new parent is marked the same way, so the one-triple offers
// skip settledWeight when it is far too.
type hattScan struct {
	b     *builder
	tb    TieBreak
	depth []int // node ID -> subtree depth (leaves 0), for TieDepth
	pop   []int // node ID -> |bits|
	// Per-O_X cache, indexed by node ID; y < 0 marks a node that is not
	// a valid O_X. uxy and dxy are |x∪y| and |xΔy| of the pair.
	y, z     []int
	w, tie   []int
	uxy, dxy []int
	// Term -> active-node index, built on first use: the active nodes
	// holding term t are holders[start[t] : start[t]+cnt[t]]. A term sits
	// in at most as many active nodes as it has Majorana indices, so the
	// lists never grow.
	start, cnt, holders []int
	// near[id] == stamp marks a node sharing a term with the pair being
	// scanned; pidNear[id] == step marks one sharing a term with the
	// step's new parent.
	near, pidNear []int
	stamp, step   int
	// scored counts full settledWeight calls; sparseScans and denseScans
	// count the pair scans (rescans and refills) that took each branch.
	scored, sparseScans, denseScans int
}

func runHattScan(ctx context.Context, p *problem, opts BuildOptions) (*hattScan, error) {
	b := newBuilder(p)
	n := p.n
	ids := 3*n + 1
	s := &hattScan{b: b, tb: opts.TieBreak}
	// The per-node tables share one allocation.
	tab := make([]int, 10*ids)
	for _, f := range []*[]int{&s.depth, &s.pop, &s.y, &s.z, &s.w, &s.tie, &s.uxy, &s.dxy, &s.near, &s.pidNear} {
		*f, tab = tab[:ids:ids], tab[ids:]
	}
	for id, lb := range b.bits[:2*n+1] {
		for _, m := range lb {
			s.pop[id] += bits.OnesCount64(m)
		}
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

// index builds the term -> active-node index from U. It runs once, on
// the first mark; a term's list is sized by its holder count then,
// which no later merge can raise.
func (s *hattScan) index() {
	b := s.b
	s.start = make([]int, b.p.nTerms+1)
	s.cnt = make([]int, b.p.nTerms)
	for _, id := range b.u {
		for wi, m := range b.bits[id] {
			for ; m != 0; m &= m - 1 {
				s.start[wi*64+bits.TrailingZeros64(m)+1]++
			}
		}
	}
	for t := range s.cnt {
		s.start[t+1] += s.start[t]
	}
	s.holders = make([]int, s.start[len(s.cnt)])
	for _, id := range b.u {
		for wi, m := range b.bits[id] {
			for ; m != 0; m &= m - 1 {
				t := wi*64 + bits.TrailingZeros64(m)
				s.holders[s.start[t]+s.cnt[t]] = id
				s.cnt[t]++
			}
		}
	}
}

// reindex moves every term of the merged ox, oy, oz to pid: the three
// leave each holder list, and pid joins those of its own terms. A list
// never grows, since pid holds a term only if one of the three did.
//
//hatt:noalloc
func (s *hattScan) reindex(pid, ox, oy, oz int) {
	bx, by, bz, bp := s.b.bits[ox], s.b.bits[oy], s.b.bits[oz], s.b.bits[pid]
	for wi := range bp {
		for m := bx[wi] | by[wi] | bz[wi]; m != 0; m &= m - 1 {
			t := wi*64 + bits.TrailingZeros64(m)
			lo, k := s.start[t], s.start[t]
			for _, id := range s.holders[lo : lo+s.cnt[t]] {
				if id != ox && id != oy && id != oz {
					s.holders[k] = id
					k++
				}
			}
			if bp[wi]&(m&-m) != 0 {
				s.holders[k] = pid
				k++
			}
			s.cnt[t] = k - lo
		}
	}
}

// mark stamps every active node that shares a term with the set a|b of
// pop terms (b may equal a) into marks and reports whether it did. It
// declines when marking, about pop·arity holder visits, costs at least
// what it can save over scoring all of U word by word: a far candidate
// still pays one mark lookup, so the saving is |U|·(words−1).
//
//hatt:noalloc
func (s *hattScan) mark(a, b termBits, pop int, marks []int, stamp int) bool {
	if pop*s.b.p.arity >= len(s.b.u)*(len(a)-1) {
		return false
	}
	if s.holders == nil {
		s.index()
	}
	for wi := range a {
		for m := a[wi] | b[wi]; m != 0; m &= m - 1 {
			t := wi*64 + bits.TrailingZeros64(m)
			for _, id := range s.holders[s.start[t] : s.start[t]+s.cnt[t]] {
				marks[id] = stamp
			}
		}
	}
	return true
}

// markPair marks the nodes touching the pair's x∪y, counting the branch.
//
//hatt:noalloc
func (s *hattScan) markPair(ox, oy int) bool {
	s.stamp++
	if s.mark(s.b.bits[ox], s.b.bits[oy], s.uxy[ox], s.near, s.stamp) {
		s.sparseScans++
		return true
	}
	s.denseScans++
	return false
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

// offer scores (ox, oy, oz) word by word against ox's cached best,
// replacing it only on a strictly smaller key: oz comes after every
// earlier candidate in U order, so an equal key keeps the earlier one.
//
//hatt:noalloc
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

// offerFar is offer for an oz that shares no term with ox or oy, scored
// from popcounts: the settled weight is |x∪y| + |z| and the TieSupport
// key |xΔy| + |z|.
//
//hatt:noalloc
func (s *hattScan) offerFar(ox, oy, oz int) {
	w := s.uxy[ox] + s.pop[oz]
	if w > s.w[ox] {
		return
	}
	t := s.dxy[ox] + s.pop[oz]
	if s.tb != TieSupport {
		t = s.tieKey(ox, oy, oz)
	}
	if w < s.w[ox] || t < s.tie[ox] {
		s.w[ox], s.tie[ox], s.z[ox] = w, t, oz
	}
}

// reset empties ox's cached best.
func (s *hattScan) reset(ox int) {
	s.w[ox], s.tie[ox], s.z[ox] = int(^uint(0)>>1), int(^uint(0)>>1), -1
}

// scan offers every candidate in us to ox's cached best.
//
//hatt:noalloc
func (s *hattScan) scan(ox, oy int, us []int, sparse bool) {
	for _, oz := range us {
		switch {
		case oz == ox || oz == oy:
		case sparse && s.near[oz] != s.stamp:
			s.offerFar(ox, oy, oz)
		default:
			s.offer(ox, oy, oz)
		}
	}
}

// rescan rebuilds ox's cache entry for partner oy from every O_Z
// candidate in U.
//
//hatt:noalloc
func (s *hattScan) rescan(ox, oy int) {
	bx, by := s.b.bits[ox], s.b.bits[oy]
	u, d := 0, 0
	for i := range bx {
		u += bits.OnesCount64(bx[i] | by[i])
		d += bits.OnesCount64(bx[i] ^ by[i])
	}
	s.y[ox], s.uxy[ox], s.dxy[ox] = oy, u, d
	s.reset(ox)
	s.scan(ox, oy, s.b.u, s.markPair(ox, oy))
}

// refill resumes ox's cache entry after its cached O_Z was merged into
// pid, the last member of U. Every survivor was a candidate before the
// merge, so none scores below the old key and those before the old O_Z
// in U order score strictly above it.
//
//hatt:noalloc
func (s *hattScan) refill(ox, oy, pid int) {
	w0, t0, z0 := s.w[ox], s.tie[ox], s.z[ox]
	sparse := s.markPair(ox, oy)
	s.reset(ox)
	s.scan(ox, oy, s.b.u[len(s.b.u)-1:], sparse) // pid alone
	pw, pt := s.w[ox], s.tie[ox]
	if pw < w0 || pw == w0 && pt < t0 {
		return // the parent beats the old key
	}
	// The suffix after z0, the parent last: its first old-key match wins.
	u := s.b.u
	j, _ := slices.BinarySearch(u, z0)
	s.reset(ox)
	for k := j; k < len(u)-1; k++ {
		if s.scan(ox, oy, u[k:k+1], sparse); s.w[ox] == w0 && s.tie[ox] == t0 {
			return
		}
	}
	if pw < s.w[ox] || pw == s.w[ox] && pt < s.tie[ox] {
		s.w[ox], s.tie[ox], s.z[ox] = pw, pt, pid
		if pw == w0 && pt == t0 {
			return
		}
	}
	// No survivor matches: the prefix decides, winning ties by U order.
	sw, st, sz := s.w[ox], s.tie[ox], s.z[ox]
	s.reset(ox)
	s.scan(ox, oy, u[:j], sparse)
	if sw < s.w[ox] || sw == s.w[ox] && st < s.tie[ox] {
		s.w[ox], s.tie[ox], s.z[ox] = sw, st, sz
	}
}

// update refreshes the cache after merge (ox, oy, oz) created pid.
//
//hatt:noalloc
func (s *hattScan) update(pid, ox, oy, oz int) {
	bp := s.b.bits[pid]
	for _, m := range bp {
		s.pop[pid] += bits.OnesCount64(m)
	}
	if s.holders != nil {
		s.reindex(pid, ox, oy, oz)
	}
	// The parent is marked only once a pair scan has built the index:
	// the one-triple offers save too little to pay for building it.
	s.step++
	pidSparse := s.holders != nil && s.mark(bp, bp, s.pop[pid], s.pidNear, s.step)
	for _, c := range s.b.u {
		cy := s.partner(c)
		switch {
		case cy < 0:
			s.y[c] = -1
		case c == pid || cy != s.y[c]:
			s.rescan(c, cy)
		case s.z[c] == ox || s.z[c] == oy || s.z[c] == oz:
			s.refill(c, cy, pid)
		case pidSparse && s.pidNear[c] != s.step && s.pidNear[cy] != s.step:
			s.offerFar(c, cy, pid)
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
