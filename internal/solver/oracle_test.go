package solver

import "repro/internal/expr"

// treeSolve is the reference search the compiled one replaced: the same
// interval propagation and candidate sets, then exhaustive, greedy and
// probing search that evaluate constraint trees with expr.Eval over an
// assignment map, and no range evaluation. The differential tests hold the
// compiled search to it: the same result class (except that range
// evaluation may prove Unsat where this answers Unknown) and, on Sat, the
// same model.
func treeSolve(s *Solver, cs []*expr.Expr) (Result, expr.Assignment) {
	live := cs[:0:0]
	for _, c := range cs {
		if c.IsConst() {
			if c.C == 0 {
				return Unsat, nil
			}
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return Sat, expr.Assignment{}
	}
	cs = live
	syms := collectSymbols(cs)
	ivs := make(map[expr.SymID]interval, len(syms))
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
	cands := s.candidates(cs, syms, ivs)

	product := 1
	for _, vs := range cands {
		product *= len(vs)
		if product > s.MaxProduct {
			product = -1
			break
		}
	}
	if product > 0 {
		if m := treeExhaustive(cs, syms, cands); m != nil {
			return Sat, m
		}
	}
	if m := treeGreedy(cs, syms, cands); m != nil {
		return Sat, m
	}
	if m := treeProbe(s, cs, syms, ivs, cands); m != nil {
		return Sat, m
	}
	if product > 0 && allRecognized(cs) {
		return Unsat, nil
	}
	return Unknown, nil
}

func treeExhaustive(cs []*expr.Expr, syms []expr.SymID, cands [][]uint32) expr.Assignment {
	a := make(expr.Assignment, len(syms))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(syms) {
			return satisfies(cs, a)
		}
		for _, v := range cands[i] {
			a[syms[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return a
	}
	return nil
}

func treeGreedy(cs []*expr.Expr, syms []expr.SymID, cands [][]uint32) expr.Assignment {
	count := func(a expr.Assignment) int {
		n := 0
		for _, c := range cs {
			if expr.Eval(c, a) != 0 {
				n++
			}
		}
		return n
	}
	for _, seed := range []uint32{0, 1, 0xFFFFFFFF} {
		a := make(expr.Assignment, len(syms))
		for i, id := range syms {
			vs := cands[i]
			a[id] = vs[0]
			for _, v := range vs {
				if v == seed {
					a[id] = v
					break
				}
			}
		}
		best := count(a)
		for round := 0; round < 8 && best < len(cs); round++ {
			improved := false
			for i, id := range syms {
				old := a[id]
				bestV, bestN := old, best
				for _, v := range cands[i] {
					a[id] = v
					if n := count(a); n > bestN {
						bestN, bestV = n, v
					}
				}
				a[id] = bestV
				if bestN > best {
					best = bestN
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if best == len(cs) {
			return a
		}
	}
	return nil
}

func treeProbe(s *Solver, cs []*expr.Expr, syms []expr.SymID, ivs map[expr.SymID]interval, cands [][]uint32) expr.Assignment {
	a := make(expr.Assignment, len(syms))
	for try := 0; try < s.MaxProbes; try++ {
		for i, id := range syms {
			r := s.rand()
			var v uint32
			switch r % 4 {
			case 0:
				vs := cands[i]
				v = vs[int(r>>8)%len(vs)]
			case 1:
				v = uint32(r>>8) & 0xFF
			case 2:
				v = uint32(r>>8) & 0xFFFF
			default:
				iv := ivs[id]
				span := uint64(iv.hi-iv.lo) + 1
				v = iv.lo + uint32(uint64(r>>8)%span)
			}
			iv := ivs[id]
			if !iv.contains(v) {
				v = iv.lo
			}
			a[id] = v
		}
		if satisfies(cs, a) {
			return a
		}
	}
	return nil
}
