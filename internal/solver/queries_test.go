package solver

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
)

// recordedQuery is one line of testdata/queries.txt.
type recordedQuery struct {
	driver string
	// class is the session's answer when the query was recorded, before
	// range evaluation existed.
	class string
	cs    []*expr.Expr
}

func loadQueries(tb testing.TB) []recordedQuery {
	tb.Helper()
	f, err := os.Open("testdata/queries.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var qs []recordedQuery
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 3 {
			tb.Fatalf("queries.txt:%d: want driver, class and constraints", line)
		}
		q := recordedQuery{driver: fields[0], class: fields[1]}
		for _, s := range fields[2:] {
			e, err := parseExpr(s)
			if err != nil {
				tb.Fatalf("queries.txt:%d: %v", line, err)
			}
			if e.String() != s {
				tb.Fatalf("queries.txt:%d: %s parses to %s", line, s, e)
			}
			q.cs = append(q.cs, e)
		}
		qs = append(qs, q)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return qs
}

// parseExpr reads the s-expression form expr.String() writes: hex
// constants, vN symbols and (op operand...) nodes, rebuilt through the
// smart constructors.
func parseExpr(s string) (*expr.Expr, error) {
	toks := strings.Fields(strings.NewReplacer("(", " ( ", ")", " ) ").Replace(s))
	e, rest, err := parseTokens(toks)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("trailing %q", rest)
	}
	return e, err
}

var binaryOps = map[string]func(x, y *expr.Expr) *expr.Expr{
	"add": expr.Add, "sub": expr.Sub, "mul": expr.Mul, "udiv": expr.UDiv,
	"urem": expr.URem, "and": expr.And, "or": expr.Or, "xor": expr.Xor,
	"shl": expr.Shl, "lshr": expr.Lshr, "ashr": expr.Ashr, "eq": expr.Eq,
	"ult": expr.ULt, "slt": expr.SLt,
}

func parseTokens(toks []string) (*expr.Expr, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end")
	}
	tok, toks := toks[0], toks[1:]
	switch {
	case strings.HasPrefix(tok, "0x"):
		v, err := strconv.ParseUint(tok[2:], 16, 32)
		return expr.Const(uint32(v)), toks, err
	case strings.HasPrefix(tok, "v"):
		id, err := strconv.ParseInt(tok[1:], 10, 32)
		return expr.Sym(expr.SymID(id)), toks, err
	case tok != "(" || len(toks) == 0:
		return nil, nil, fmt.Errorf("unexpected %q", tok)
	}
	op, toks := toks[0], toks[1:]
	var args []*expr.Expr
	for len(toks) > 0 && toks[0] != ")" {
		a, rest, err := parseTokens(toks)
		if err != nil {
			return nil, nil, err
		}
		args, toks = append(args, a), rest
	}
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unclosed (%s", op)
	}
	toks = toks[1:]
	if f, ok := binaryOps[op]; ok && len(args) == 2 {
		return f(args[0], args[1]), toks, nil
	}
	switch {
	case op == "not" && len(args) == 1:
		return expr.Not(args[0]), toks, nil
	case op == "ite" && len(args) == 3:
		return expr.Ite(args[0], args[1], args[2]), toks, nil
	}
	return nil, nil, fmt.Errorf("bad node (%s) with %d operands", op, len(args))
}

// TestRecordedQueriesMatchTreeOracle holds the solver to the tree-walk
// search on the recorded session queries: the same answer, except that
// range evaluation may prove Unsat where the oracle gives up with
// Unknown, and on Sat the same model. A query is Sat exactly when it was
// Sat in the recorded session.
func TestRecordedQueriesMatchTreeOracle(t *testing.T) {
	qs := loadQueries(t)
	proved, unknown := 0, 0
	for i, q := range qs {
		got, gm := New().Check(q.cs)
		want, wm := treeSolve(New(), q.cs)
		switch {
		case got == want:
		case got == Unsat && want == Unknown:
			proved++
		default:
			t.Fatalf("query %d (%s): %v, tree oracle %v", i+1, q.driver, got, want)
		}
		if (got == Sat) != (q.class == "sat") {
			t.Fatalf("query %d (%s): %v, recorded in session as %s", i+1, q.driver, got, q.class)
		}
		if got == Unknown {
			unknown++
		}
		if got == Sat && !maps.Equal(gm, wm) {
			t.Fatalf("query %d (%s): model %v, tree oracle %v", i+1, q.driver, gm, wm)
		}
	}
	t.Logf("%d queries: %d proved Unsat by range evaluation, %d still Unknown", len(qs), proved, unknown)
	// The queries left are intel-pro100's flag-bit family: a flag bit
	// clear while the byte holding it equals an odd constant, which needs
	// bit-level reasoning. Every other recorded Unknown is a
	// range-evaluation Unsat.
	if unknown > 5 {
		t.Errorf("%d queries still Unknown, want at most 5", unknown)
	}
}

// BenchmarkSolverCheck answers every recorded query once per iteration on
// a fresh solver (no cache hits) and reports the mean time per query.
func BenchmarkSolverCheck(b *testing.B) {
	qs := loadQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, q := range qs {
			s.Check(q.cs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(qs)), "us/query")
}
