package solver

import "repro/internal/expr"

// rangeOf returns a sound unsigned range of e's value over every assignment
// that keeps each symbol inside its interval in ivs (symbols missing from
// ivs range over all words). Sound means Eval(e, a) lies in the result for
// every such a; exactness is best effort. Results of nodes above
// dagThreshold are memoised in s.ranges. A constraint whose range is
// [0,0] is false under every admissible assignment, so its query is Unsat.
//
// The rules are the ones driver path constraints need. A contiguous low
// mask covering its operand is the identity, or-ing a zero range is the
// identity, and constant shifts, additions and subtractions that cannot
// wrap stay intervals: together they see through the byte extraction and
// reassembly a driver does on a register word. And is bounded by either
// operand, and comparisons of disjoint or ordered ranges are decided. Every
// other operator widens to the full range.
func (s *Solver) rangeOf(e *expr.Expr, ivs map[expr.SymID]interval) interval {
	switch e.Op {
	case expr.OpConst:
		return interval{e.C, e.C}
	case expr.OpSym:
		if iv, ok := ivs[e.Sym]; ok {
			return iv
		}
		return fullInterval()
	}
	memo := e.Size() > dagThreshold
	if memo {
		if r, ok := s.ranges[e]; ok {
			return r
		}
	}
	r := s.rangeNode(e, ivs)
	if memo {
		if s.ranges == nil {
			s.ranges = make(map[*expr.Expr]interval)
		}
		s.ranges[e] = r
	}
	return r
}

func (s *Solver) rangeNode(e *expr.Expr, ivs map[expr.SymID]interval) interval {
	if e.Op == expr.OpNot || e.Op == expr.OpIte {
		return fullInterval()
	}
	x, y := s.rangeOf(e.X, ivs), s.rangeOf(e.Y, ivs)
	switch e.Op {
	case expr.OpAnd:
		// A contiguous low mask at least as wide as the other operand
		// leaves it unchanged; otherwise x&y is at most either operand.
		if isLowMask(x) && y.hi <= x.lo {
			return y
		}
		if isLowMask(y) && x.hi <= y.lo {
			return x
		}
		return interval{0, min(x.hi, y.hi)}
	case expr.OpOr:
		if x.hi == 0 {
			return y
		}
		if y.hi == 0 {
			return x
		}
	case expr.OpShl:
		if y.lo == y.hi {
			k := y.lo & 31
			if x.hi <= 0xFFFFFFFF>>k {
				return interval{x.lo << k, x.hi << k}
			}
		}
	case expr.OpLshr:
		if y.lo == y.hi {
			k := y.lo & 31
			return interval{x.lo >> k, x.hi >> k}
		}
	case expr.OpAdd:
		// Exact when even the largest sum does not wrap.
		if hi := uint64(x.hi) + uint64(y.hi); hi <= 0xFFFFFFFF {
			return interval{x.lo + y.lo, uint32(hi)}
		}
	case expr.OpSub:
		// Exact when even the smallest difference does not wrap.
		if x.lo >= y.hi {
			return interval{x.lo - y.hi, x.hi - y.lo}
		}
	case expr.OpEq:
		if x.hi < y.lo || y.hi < x.lo {
			return interval{0, 0}
		}
		if x.lo == x.hi && x == y {
			return interval{1, 1}
		}
		return interval{0, 1}
	case expr.OpULt:
		if x.hi < y.lo {
			return interval{1, 1}
		}
		if x.lo >= y.hi {
			return interval{0, 0}
		}
		return interval{0, 1}
	}
	return fullInterval()
}

// isLowMask reports whether iv is a single contiguous low mask 2^k - 1.
func isLowMask(iv interval) bool {
	return iv.lo == iv.hi && iv.lo&(iv.lo+1) == 0
}
