package solver

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// randomDAG builds a random expression over symbols v0..v2. Subexpressions
// are drawn from a pool of earlier ones, so the results share nodes the
// way hash-consed path constraints do.
func randomDAG(rng *rand.Rand, pool []*expr.Expr, depth int) *expr.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return expr.Sym(expr.SymID(rng.Intn(3)))
		case 1:
			if len(pool) > 0 {
				return pool[rng.Intn(len(pool))]
			}
		}
		return expr.Const(interestingConst(rng))
	}
	x := randomDAG(rng, pool, depth-1)
	y := randomDAG(rng, pool, depth-1)
	switch rng.Intn(17) {
	case 0:
		return expr.Add(x, y)
	case 1:
		return expr.Sub(x, y)
	case 2:
		return expr.Mul(x, y)
	case 3:
		return expr.UDiv(x, y)
	case 4:
		return expr.URem(x, y)
	case 5:
		return expr.And(x, y)
	case 6:
		return expr.Or(x, y)
	case 7:
		return expr.Xor(x, y)
	case 8:
		return expr.Shl(x, y)
	case 9:
		return expr.Lshr(x, y)
	case 10:
		return expr.Ashr(x, y)
	case 11:
		return expr.Eq(x, y)
	case 12:
		return expr.ULt(x, y)
	case 13:
		return expr.SLt(x, y)
	case 14:
		return expr.Ite(x, y, randomDAG(rng, pool, depth-1))
	case 15:
		return expr.Not(x)
	}
	// Byte extraction and reassembly, the shape drivers build most.
	return expr.ConcatBytes(expr.ExtractByte(x, 0), expr.ExtractByte(x, 1),
		expr.ExtractByte(x, 2), expr.ExtractByte(x, 3))
}

func interestingConst(rng *rand.Rand) uint32 {
	table := [...]uint32{0, 1, 2, 7, 8, 0xe, 0x10, 0x18, 0x40, 0xff, 0x100,
		0xff00, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff}
	if rng.Intn(3) == 0 {
		return rng.Uint32()
	}
	return table[rng.Intn(len(table))]
}

// randomInterval favours small and sign-boundary ranges, where the
// exactness rules fire.
func randomInterval(rng *rand.Rand) interval {
	var a, b uint32
	switch rng.Intn(3) {
	case 0:
		a, b = uint32(rng.Intn(300)), uint32(rng.Intn(300))
	case 1:
		a, b = 0x7fffff00+uint32(rng.Intn(512)), 0x7fffff00+uint32(rng.Intn(512))
	default:
		a, b = rng.Uint32(), rng.Uint32()
	}
	if a > b {
		a, b = b, a
	}
	return interval{a, b}
}

func drawIn(rng *rand.Rand, iv interval) uint32 {
	switch rng.Intn(4) {
	case 0:
		return iv.lo
	case 1:
		return iv.hi
	}
	return iv.lo + uint32(rng.Uint64()%(uint64(iv.hi-iv.lo)+1))
}

// TestQuickRangeOfIsSound: for random expression DAGs, random symbol
// intervals and random assignments inside them, the concrete value lies in
// the range rangeOf computes.
func TestQuickRangeOfIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	s.ranges = make(map[*expr.Expr]interval)
	var pool []*expr.Expr
	for i := 0; i < 20000; i++ {
		e := randomDAG(rng, pool, 1+rng.Intn(5))
		switch {
		case e.Size() > 48:
		case len(pool) < 64:
			pool = append(pool, e)
		default:
			pool[rng.Intn(len(pool))] = e
		}
		ivs := map[expr.SymID]interval{}
		for id := expr.SymID(0); id < 3; id++ {
			ivs[id] = randomInterval(rng)
		}
		clear(s.ranges)
		r := s.rangeOf(e, ivs)
		for k := 0; k < 16; k++ {
			a := expr.Assignment{}
			for id, iv := range ivs {
				a[id] = drawIn(rng, iv)
			}
			if v := expr.Eval(e, a); !r.contains(v) {
				t.Fatalf("%v under %v = %#x, outside range [%#x, %#x] (intervals %v)", e, a, v, r.lo, r.hi, ivs)
			}
		}
	}
}

// TestRangeProvesByteReassemblyUnsat: the shape that used to end Unknown
// after every probe failed — a reassembled packet length compared against
// a bound its own interval already excludes.
func TestRangeProvesByteReassemblyUnsat(t *testing.T) {
	v := expr.Sym(79)
	word := expr.ConcatBytes(expr.ExtractByte(v, 0), expr.ExtractByte(v, 1),
		expr.ExtractByte(v, 2), expr.ExtractByte(v, 3))
	domain := []*expr.Expr{expr.UGe(v, expr.Const(14)), expr.ULe(v, expr.Const(64))}
	for _, c := range []*expr.Expr{
		expr.ULt(word, expr.Const(0xe)),
		expr.Eq(word, expr.Const(0)),
		expr.LogicalNot(expr.ULt(expr.Const(1), word)),
	} {
		s := New()
		if res, _ := s.Check(append(domain, c)); res != Unsat {
			t.Errorf("%v: %v, want unsat", c, res)
		}
		if s.Stats.Probes != 0 {
			t.Errorf("%v: %d probes, want none", c, s.Stats.Probes)
		}
	}
	checkSat(t, New(), append(domain, expr.ULt(word, expr.Const(0xf))))
}
