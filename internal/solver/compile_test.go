package solver

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestQuickCompiledEvalMatchesEval: a compiled constraint computes, in its
// root register, exactly what expr.Eval computes, for random expression
// DAGs over every operator and random assignments.
func TestQuickCompiledEvalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := []expr.SymID{0, 1, 2}
	var p prog
	var pool []*expr.Expr
	for i := 0; i < 5000; i++ {
		e := randomDAG(rng, pool, 1+rng.Intn(5))
		if e.IsConst() {
			continue
		}
		if e.Size() <= 48 {
			pool = append(pool, e)
		}
		p.compile([]*expr.Expr{e, expr.Not(e)}, syms)
		for k := 0; k < 8; k++ {
			a := expr.Assignment{}
			for slot, id := range syms {
				a[id] = interestingConst(rng)
				p.regs[slot] = a[id]
			}
			want := expr.Eval(e, a)
			if got := p.eval(0); got != (want != 0) || p.regs[p.cons[0].root] != want {
				t.Fatalf("%v under %v: compiled %#x, Eval %#x", e, a, p.regs[p.cons[0].root], want)
			}
			if got := p.eval(1); got != (^want != 0) {
				t.Fatalf("not %v under %v: compiled %v, Eval %#x", e, a, got, ^want)
			}
		}
	}
}

// TestQuickSearchMatchesTreeOracle: on random constraint sets the solver
// answers as the tree-walk search does (Unknown may become Unsat) and
// returns the same model.
func TestQuickSearchMatchesTreeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pool []*expr.Expr
	classes := map[Result]int{}
	cmp := []func(x, y *expr.Expr) *expr.Expr{expr.Eq, expr.ULt, expr.SLt, expr.ULe, expr.UGe, expr.Ne}
	for i := 0; i < 1500; i++ {
		var cs []*expr.Expr
		for n := 1 + rng.Intn(4); len(cs) < n; {
			x := randomDAG(rng, pool, rng.Intn(4))
			y := expr.Const(interestingConst(rng))
			if rng.Intn(3) == 0 {
				y = randomDAG(rng, pool, rng.Intn(3))
			}
			c := cmp[rng.Intn(len(cmp))](x, y)
			if c.Size() <= 48 {
				pool = append(pool, x)
			}
			cs = append(cs, c)
		}
		got, gm := New().Check(cs)
		want, wm := treeSolve(New(), cs)
		classes[got]++
		if got != want && (got != Unsat || want != Unknown) {
			t.Fatalf("%v: %v, tree oracle %v", cs, got, want)
		}
		if got == Sat && !maps.Equal(gm, wm) {
			t.Fatalf("%v: model %v, tree oracle %v", cs, gm, wm)
		}
	}
	t.Logf("answers: %v", classes)
}
