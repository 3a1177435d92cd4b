package solver

import (
	"maps"
	"testing"

	"repro/internal/expr"
)

// decodeQuery turns fuzz bytes into a constraint set over v0 and v1 with a
// small stack machine: each byte pushes a symbol or a constant, applies an
// operator to the top of the stack, or pops the top as a constraint. The
// byte following a constant opcode selects its value.
func decodeQuery(data []byte) []*expr.Expr {
	consts := [...]uint32{0, 1, 2, 7, 8, 0xe, 0x10, 0x18, 0x40, 0xff, 0x100,
		0xff00, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff}
	binary := [...]func(x, y *expr.Expr) *expr.Expr{
		expr.Add, expr.Sub, expr.Mul, expr.UDiv, expr.URem, expr.And, expr.Or,
		expr.Xor, expr.Shl, expr.Lshr, expr.Ashr, expr.Eq, expr.ULt, expr.SLt,
	}
	var stack, cs []*expr.Expr
	pop := func() *expr.Expr {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	for i := 0; i < len(data) && len(cs) < 6; i++ {
		switch op := int(data[i] % 24); {
		case op < 2:
			stack = append(stack, expr.Sym(expr.SymID(op)))
		case op < 4:
			v := uint32(0)
			if i+1 < len(data) {
				i++
				v = uint32(data[i])
				if op == 3 {
					v = consts[v%uint32(len(consts))]
				}
			}
			stack = append(stack, expr.Const(v))
		case op < 4+len(binary):
			if len(stack) >= 2 {
				y, x := pop(), pop()
				stack = append(stack, binary[op-4](x, y))
			}
		case op == 18:
			if len(stack) >= 1 {
				stack = append(stack, expr.Not(pop()))
			}
		case op == 19:
			if len(stack) >= 3 {
				z, y, x := pop(), pop(), pop()
				stack = append(stack, expr.Ite(x, y, z))
			}
		case op == 20:
			if len(stack) >= 1 {
				x := pop()
				stack = append(stack, expr.ConcatBytes(expr.ExtractByte(x, 0),
					expr.ExtractByte(x, 1), expr.ExtractByte(x, 2), expr.ExtractByte(x, 3)))
			}
		default:
			if len(stack) >= 1 {
				cs = append(cs, pop())
			}
		}
		if len(stack) > 0 && stack[len(stack)-1].Size() > 64 {
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) > 0 && len(cs) < 6 {
		cs = append(cs, stack[len(stack)-1])
	}
	return cs
}

// FuzzSolverSound checks the solver on decoded constraint sets: a Sat
// model satisfies every constraint and is the tree-walk oracle's model,
// and an Unsat answer has no model with both symbols in [0,255]. The seed
// corpus in testdata/fuzz/FuzzSolverSound holds the recorded driver
// shapes: masked bytes, reassembled words and linear offsets.
func FuzzSolverSound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := decodeQuery(data)
		res, m := New().Check(cs)
		switch res {
		case Sat:
			for _, c := range cs {
				if expr.Eval(c, m) == 0 {
					t.Fatalf("model %v does not satisfy %v", m, c)
				}
			}
			if want, wm := treeSolve(New(), cs); want != Sat || !maps.Equal(m, wm) {
				t.Fatalf("%v: model %v, tree oracle %v %v", cs, m, want, wm)
			}
		case Unsat:
			a := expr.Assignment{}
			for v0 := uint32(0); v0 < 256; v0++ {
				for v1 := uint32(0); v1 < 256; v1++ {
					a[0], a[1] = v0, v1
					if satisfies(cs, a) {
						t.Fatalf("unsat, but %v satisfies %v", a, cs)
					}
				}
			}
		}
	})
}
