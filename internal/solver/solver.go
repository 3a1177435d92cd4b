// Package solver decides satisfiability of path constraints and produces
// concrete models (assignments of symbolic inputs), standing in for the
// Klee/STP stack the paper builds on.
//
// Device-driver path constraints live in a narrow fragment: comparisons of
// symbolic inputs (hardware register reads, registry values, packet bytes)
// against constants, simple linear offsets, bit masks, and boolean
// combinations thereof. The solver is sound always: a Sat answer comes with
// a model that the search found over compiled constraints and that is
// verified by evaluating every constraint tree, and an Unsat answer comes
// from sound reasoning — interval propagation narrowing some symbol to
// nothing, range evaluation (rangeOf) showing a constraint is 0 over the
// whole box of symbol intervals, or an exhausted boundary-candidate search
// over a fragment where the candidates are complete. It is complete in
// practice for this fragment via exhaustive candidate-set search, greedy
// repair and randomized probing, all of which run over the query compiled
// into flat register programs (prog). Answers it cannot decide are reported
// as Unknown, which DDT's exerciser treats as "do not explore" (a coverage
// loss, never a false positive — matching the paper's accuracy discipline).
package solver

import (
	"slices"

	"repro/internal/expr"
)

// Result is the outcome of a satisfiability query.
type Result int

// Query outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Stats counts solver activity for benchmark reporting.
type Stats struct {
	Queries      uint64
	CacheHits    uint64
	SatAnswers   uint64
	UnsatAnswers uint64
	UnknownAns   uint64
	Probes       uint64
}

// Solver answers satisfiability queries over sets of constraints. Each
// constraint is an expression required to evaluate to a non-zero value.
//
// A Solver itself is single-goroutine scratch (its probe RNG and Stats are
// unsynchronized); parallel exploration gives each worker its own Solver.
// The query cache behind it IS thread-safe and can be shared across workers
// with NewWithCache, so one worker's Sat/Unsat answers are hits for all.
type Solver struct {
	cache *Cache
	rng   uint64
	// MaxProbes bounds randomized probing per query.
	MaxProbes int
	// MaxProduct bounds the exhaustive candidate cross-product.
	MaxProduct int
	Stats      Stats

	// Per-query scratch, reused across queries so that steady-state
	// solving does not grow the heap.
	ivs       map[expr.SymID]interval
	ranges    map[*expr.Expr]interval
	prog      prog
	seen      map[uint32]struct{}
	constList []uint32
	pool      []uint32
	cands     [][]uint32
	slotIvs   []interval
}

// New returns a Solver with default limits and a private query cache.
func New() *Solver {
	return NewWithCache(NewCache(0))
}

// NewWithCache returns a Solver backed by the given (possibly shared)
// query cache.
func NewWithCache(c *Cache) *Solver {
	if c == nil {
		c = NewCache(0)
	}
	return &Solver{
		cache:      c,
		rng:        0x9E3779B97F4A7C15,
		MaxProbes:  4096,
		MaxProduct: 8192,
	}
}

// Cache returns the query cache backing this solver.
func (s *Solver) Cache() *Cache { return s.cache }

func (s *Solver) rand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// Check decides whether the conjunction of cs is satisfiable. On Sat the
// returned assignment covers every symbol occurring in cs and makes every
// constraint non-zero (solve re-verifies this with expr.Eval).
func (s *Solver) Check(cs []*expr.Expr) (Result, expr.Assignment) {
	s.Stats.Queries++

	// Fast path: constant constraints.
	live := cs[:0:0]
	for _, c := range cs {
		if c.IsConst() {
			if c.C == 0 {
				s.Stats.UnsatAnswers++
				return Unsat, nil
			}
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		s.Stats.SatAnswers++
		return Sat, expr.Assignment{}
	}

	key := hashConstraints(live)
	if e, ok := s.cache.get(key); ok {
		s.Stats.CacheHits++
		return e.res, cloneAssignment(e.model)
	}

	res, model := s.solve(live)
	s.cache.put(key, cacheEntry{res, cloneAssignment(model)})
	switch res {
	case Sat:
		s.Stats.SatAnswers++
	case Unsat:
		s.Stats.UnsatAnswers++
	default:
		s.Stats.UnknownAns++
	}
	return res, model
}

// Feasible reports whether the conjunction of cs has at least one model.
// Unknown is conservatively reported as infeasible.
func (s *Solver) Feasible(cs []*expr.Expr) bool {
	res, _ := s.Check(cs)
	return res == Sat
}

// Model returns a satisfying assignment for cs, or nil if none was found.
func (s *Solver) Model(cs []*expr.Expr) expr.Assignment {
	res, m := s.Check(cs)
	if res != Sat {
		return nil
	}
	return m
}

func hashConstraints(cs []*expr.Expr) uint64 {
	// Order-insensitive combination: constraint sets arrive in append order,
	// but logically they are sets.
	var h uint64 = 0x8b3e5e3c9d2f1a77
	for _, c := range cs {
		h ^= c.Hash() * 0x9E3779B97F4A7C15
	}
	h ^= uint64(len(cs)) << 32
	return h
}

func cloneAssignment(a expr.Assignment) expr.Assignment {
	if a == nil {
		return nil
	}
	out := make(expr.Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// solve answers a query whose constraints are all non-constant. A Sat
// model the search found over the compiled programs is checked once more
// with expr.Eval, so a Sat answer never depends on the compiled evaluator
// agreeing with the tree one.
func (s *Solver) solve(cs []*expr.Expr) (Result, expr.Assignment) {
	res, m := s.search(cs)
	if res == Sat && !satisfies(cs, m) {
		return Unknown, nil
	}
	return res, m
}

func satisfies(cs []*expr.Expr, a expr.Assignment) bool {
	for _, c := range cs {
		if expr.Eval(c, a) == 0 {
			return false
		}
	}
	return true
}

func (s *Solver) search(cs []*expr.Expr) (Result, expr.Assignment) {
	syms := collectSymbols(cs)

	// Interval propagation: sound narrowing of per-symbol unsigned ranges.
	if s.ivs == nil {
		s.ivs = make(map[expr.SymID]interval)
	}
	ivs := s.ivs
	clear(ivs)
	for _, id := range syms {
		ivs[id] = fullInterval()
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, c := range cs {
			ok, ch := propagate(c, true, ivs)
			if !ok {
				return Unsat, nil
			}
			changed = changed || ch
		}
		if !changed {
			break
		}
	}

	// Range evaluation: a constraint that is 0 over the whole box the
	// intervals describe has no model.
	clear(s.ranges)
	for _, c := range cs {
		if s.rangeOf(c, ivs).hi == 0 {
			return Unsat, nil
		}
	}

	cands := s.candidates(cs, syms, ivs)
	p := &s.prog
	p.compile(cs, syms)

	// Exhaustive search over the candidate cross-product when small.
	product := 1
	for _, vs := range cands {
		product *= len(vs)
		if product > s.MaxProduct {
			product = -1
			break
		}
	}
	if product > 0 {
		if p.exhaustive(cands) {
			return Sat, p.model(syms)
		}
		// The candidate sets cover every comparison boundary. For the
		// supported fragment exhaustive failure strongly suggests Unsat,
		// but wide multiplications etc. can escape the boundaries, so fall
		// through to probing before giving up. Greedy repair only tries
		// candidate values, all of which exhaustive search has just
		// ruled out, so it is skipped.
	} else if p.greedy(cands) {
		return Sat, p.model(syms)
	}
	if s.probe(syms, cands) {
		return Sat, p.model(syms)
	}
	if product > 0 {
		// Exhaustive over boundary candidates + probing both failed; for
		// the interval-comparison fragment this is a sound Unsat because
		// candidate sets include all interval endpoints and comparison
		// boundaries. Declare Unsat only when every constraint is in the
		// recognized fragment; otherwise stay Unknown.
		if allRecognized(cs) {
			return Unsat, nil
		}
	}
	return Unknown, nil
}

func collectSymbols(cs []*expr.Expr) []expr.SymID {
	set := make(map[expr.SymID]bool)
	for _, c := range cs {
		expr.CollectSyms(c, set)
	}
	out := make([]expr.SymID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// probe tries random assignments, drawn per slot from the candidates,
// small and medium values, and the symbol's interval, and leaves the first
// model in the slots.
func (s *Solver) probe(syms []expr.SymID, cands [][]uint32) bool {
	p := &s.prog
	s.slotIvs = s.slotIvs[:0]
	for _, id := range syms {
		s.slotIvs = append(s.slotIvs, s.ivs[id])
	}
	for try := 0; try < s.MaxProbes; try++ {
		s.Stats.Probes++
		for slot, iv := range s.slotIvs {
			r := s.rand()
			var v uint32
			switch r % 4 {
			case 0: // candidate value
				vs := cands[slot]
				v = vs[int(r>>8)%len(vs)]
			case 1: // small value
				v = uint32(r>>8) & 0xFF
			case 2: // medium value
				v = uint32(r>>8) & 0xFFFF
			default: // anywhere in the interval
				span := uint64(iv.hi-iv.lo) + 1
				v = iv.lo + uint32(uint64(r>>8)%span)
			}
			if !iv.contains(v) {
				v = iv.lo
			}
			p.regs[slot] = v
		}
		if p.all() {
			return true
		}
	}
	return false
}

// candidates builds, per symbol slot, the set of "interesting" values:
// interval endpoints, comparison boundaries found anywhere in the
// constraints, and the usual suspects (0, 1, all-ones, sign boundaries),
// each with ±1 neighbours, filtered to the symbol's interval. The order is
// a function of the constraints alone — the harvested constants are sorted
// — so the first model a search finds does not depend on map iteration.
func (s *Solver) candidates(cs []*expr.Expr, syms []expr.SymID, ivs map[expr.SymID]interval) [][]uint32 {
	cl := s.constList[:0]
	for _, c := range cs {
		cl = collectConsts(c, cl)
	}
	slices.Sort(cl)
	cl = slices.Compact(cl)
	s.constList = cl

	// The pool in first-occurrence order, without repeats.
	pairwise := len(cl) <= 24
	if s.seen == nil {
		s.seen = make(map[uint32]struct{})
	}
	seen := s.seen
	clear(seen)
	pool := s.pool[:0]
	add := func(v uint32) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			pool = append(pool, v)
		}
	}
	for _, v := range [...]uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		add(v)
	}
	for _, v := range cl {
		add(v)
		add(v + 1)
		add(v - 1)
	}
	// Pairwise differences catch linear offsets (Eq(c, Add(k, x)) already
	// folds in the simplifier, but Sub/And compositions may not).
	if pairwise {
		for i := range cl {
			for j := range cl {
				if i != j {
					add(cl[i] - cl[j])
				}
			}
		}
	}
	s.pool = pool

	// Each slot's list is its interval's endpoints and their inner
	// neighbours, then the pool values inside the interval. The pool has
	// no repeats, so only the (at most four) leading values need checking.
	out := resetLists(s.cands, len(syms))
	for slot, id := range syms {
		iv := ivs[id]
		vs := out[slot]
		for _, v := range [...]uint32{iv.lo, iv.hi, iv.lo + 1, iv.hi - 1} {
			if iv.contains(v) && !slices.Contains(vs, v) {
				vs = append(vs, v)
			}
		}
		head := len(vs)
		for _, v := range pool {
			if iv.contains(v) && !slices.Contains(vs[:head], v) {
				vs = append(vs, v)
			}
		}
		out[slot] = vs
	}
	s.cands = out
	return out
}

// collectConsts appends every constant in e to out, repeats included.
func collectConsts(e *expr.Expr, out []uint32) []uint32 {
	// Hash-consed expressions share subtrees; above the same threshold the
	// expr package uses for symbol collection, skip already-visited
	// pointers so shared subtrees are walked once. The collected value set
	// is identical either way.
	if e.Size() > 64 {
		return collectConstsDAG(e, out, make(map[*expr.Expr]struct{}, 32))
	}
	return collectConstsTree(e, out)
}

func collectConstsTree(e *expr.Expr, out []uint32) []uint32 {
	if e == nil {
		return out
	}
	if e.Op == expr.OpConst {
		return append(out, e.C)
	}
	out = collectConstsTree(e.X, out)
	out = collectConstsTree(e.Y, out)
	return collectConstsTree(e.Z, out)
}

func collectConstsDAG(e *expr.Expr, out []uint32, seen map[*expr.Expr]struct{}) []uint32 {
	if e == nil {
		return out
	}
	if e.Op == expr.OpConst {
		return append(out, e.C)
	}
	if _, ok := seen[e]; ok {
		return out
	}
	seen[e] = struct{}{}
	out = collectConstsDAG(e.X, out, seen)
	out = collectConstsDAG(e.Y, out, seen)
	return collectConstsDAG(e.Z, out, seen)
}
