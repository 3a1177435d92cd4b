package solver

import (
	"slices"

	"repro/internal/expr"
)

// prog is one query compiled for candidate search. Every constraint is a
// flat post-order run of register instructions; the register file holds
// the symbol slots first (slot i is the i-th symbol in ascending SymID
// order), then constants and instruction results in compile order.
// Setting a symbol is a store to its slot, and evaluating a constraint is
// a loop over its run — no expression tree walk and no map lookup. Shared
// subexpressions above dagThreshold nodes are compiled once per
// constraint, so a run is linear in the constraint's distinct nodes.
//
// A prog is Solver-owned scratch: compile resets it and reuses every
// buffer, so steady-state search does not allocate.
type prog struct {
	regs []uint32
	code []inst
	cons []cspan
	// uses lists, per slot, the constraints that mention it; greedy
	// re-evaluates only those when it tries a value for the slot.
	uses [][]int32
	// last lists, per slot, the constraints whose highest slot it is;
	// exhaustive checks them as soon as that slot is set. Constraints
	// without symbols are in ground.
	last   [][]int32
	ground []int32
	// sat is greedy's satisfied bit per constraint.
	sat []bool

	syms    []expr.SymID
	nodeReg map[*expr.Expr]int32
	mark    []int32 // per slot: the last constraint (index+1) that mentioned it
}

// dagThreshold is the tree size above which compile and rangeOf share a
// node's result by pointer. Hash-consed expressions are DAGs — a
// byte-reassembled word mentions the same shifted symbol many times — and
// sharing large nodes keeps both walks linear in distinct nodes. Smaller
// subtrees are handled per occurrence: redoing them is cheaper than a map
// probe.
const dagThreshold = 16

// inst computes regs[dst] = op(regs[x], regs[y], regs[z]). Unused operand
// indices repeat x so every read is in bounds.
type inst struct {
	op      expr.Op
	dst     int32
	x, y, z int32
}

// cspan is one constraint's instruction run code[start:end] and the
// register holding its value.
type cspan struct {
	start, end, root int32
}

// compile builds p from cs over the ascending symbol list syms.
func (p *prog) compile(cs []*expr.Expr, syms []expr.SymID) {
	n := len(syms)
	p.syms = syms
	p.regs = append(p.regs[:0], make([]uint32, n)...)
	p.code = p.code[:0]
	p.cons = p.cons[:0]
	p.ground = p.ground[:0]
	p.uses = resetLists(p.uses, n)
	p.last = resetLists(p.last, n)
	p.mark = append(p.mark[:0], make([]int32, n)...)
	for j, c := range cs {
		clear(p.nodeReg)
		start := int32(len(p.code))
		root := p.node(c, int32(j)+1)
		top := int32(-1)
		for slot, m := range p.mark {
			if m == int32(j)+1 {
				p.uses[slot] = append(p.uses[slot], int32(j))
				top = int32(slot)
			}
		}
		if top < 0 {
			p.ground = append(p.ground, int32(j))
		} else {
			p.last[top] = append(p.last[top], int32(j))
		}
		p.cons = append(p.cons, cspan{start, int32(len(p.code)), root})
	}
	p.sat = append(p.sat[:0], make([]bool, len(cs))...)
}

// resetLists returns ls with n empty lists, reusing their backing arrays.
func resetLists[T any](ls [][]T, n int) [][]T {
	for len(ls) < n {
		ls = append(ls, nil)
	}
	ls = ls[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

// node compiles e and returns the register holding its value; stamp marks
// the slots the current constraint mentions.
func (p *prog) node(e *expr.Expr, stamp int32) int32 {
	switch e.Op {
	case expr.OpConst:
		p.regs = append(p.regs, e.C)
		return int32(len(p.regs) - 1)
	case expr.OpSym:
		slot, _ := slices.BinarySearch(p.syms, e.Sym)
		p.mark[slot] = stamp
		return int32(slot)
	}
	shared := e.Size() > dagThreshold
	if shared {
		if r, ok := p.nodeReg[e]; ok {
			return r
		}
	}
	in := inst{op: e.Op}
	in.x = p.node(e.X, stamp)
	in.y, in.z = in.x, in.x
	if e.Y != nil {
		in.y = p.node(e.Y, stamp)
	}
	if e.Z != nil {
		in.z = p.node(e.Z, stamp)
	}
	in.dst = int32(len(p.regs))
	p.regs = append(p.regs, 0)
	p.code = append(p.code, in)
	if shared {
		if p.nodeReg == nil {
			p.nodeReg = make(map[*expr.Expr]int32)
		}
		p.nodeReg[e] = in.dst
	}
	return in.dst
}

// eval runs constraint j over the current slot values and reports whether
// it holds. The semantics are expr.Eval's, operator for operator; both
// arms of an ite are computed, which is safe because no operator traps.
func (p *prog) eval(j int32) bool {
	c := p.cons[j]
	r := p.regs
	for _, in := range p.code[c.start:c.end] {
		x, y := r[in.x], r[in.y]
		var v uint32
		switch in.op {
		case expr.OpAdd:
			v = x + y
		case expr.OpSub:
			v = x - y
		case expr.OpMul:
			v = x * y
		case expr.OpUDiv:
			v = 0xFFFFFFFF
			if y != 0 {
				v = x / y
			}
		case expr.OpURem:
			v = x
			if y != 0 {
				v = x % y
			}
		case expr.OpAnd:
			v = x & y
		case expr.OpOr:
			v = x | y
		case expr.OpXor:
			v = x ^ y
		case expr.OpShl:
			v = x << (y & 31)
		case expr.OpLshr:
			v = x >> (y & 31)
		case expr.OpAshr:
			v = uint32(int32(x) >> (y & 31))
		case expr.OpEq:
			if x == y {
				v = 1
			}
		case expr.OpULt:
			if x < y {
				v = 1
			}
		case expr.OpSLt:
			if int32(x) < int32(y) {
				v = 1
			}
		case expr.OpIte:
			v = r[in.z]
			if x != 0 {
				v = y
			}
		case expr.OpNot:
			v = ^x
		default:
			panic("solver: compiled op " + in.op.String())
		}
		r[in.dst] = v
	}
	return r[c.root] != 0
}

// all reports whether every constraint holds.
func (p *prog) all() bool {
	for j := range p.cons {
		if !p.eval(int32(j)) {
			return false
		}
	}
	return true
}

// model returns the slot values as an assignment.
func (p *prog) model(syms []expr.SymID) expr.Assignment {
	a := make(expr.Assignment, len(syms))
	for i, id := range syms {
		a[id] = p.regs[i]
	}
	return a
}

// exhaustive searches the cross-product of the per-slot candidate lists in
// lexicographic order and leaves the first model in the slots. A
// constraint is checked as soon as its highest slot is set, which prunes
// only subtrees without a model: the first model found is the one a full
// enumeration finds.
func (p *prog) exhaustive(cands [][]uint32) bool {
	for _, j := range p.ground {
		if !p.eval(j) {
			return false
		}
	}
	return p.extend(0, cands)
}

func (p *prog) extend(slot int, cands [][]uint32) bool {
	if slot == len(cands) {
		return true
	}
next:
	for _, v := range cands[slot] {
		p.regs[slot] = v
		for _, j := range p.last[slot] {
			if !p.eval(j) {
				continue next
			}
		}
		if p.extend(slot+1, cands) {
			return true
		}
	}
	return false
}

// greedy starts from seed assignments and repairs one slot at a time,
// maximizing the number of satisfied constraints; it leaves a model in the
// slots on success. The counts are kept incrementally — a trial value
// re-evaluates only the constraints that mention the slot — and equal a
// full recount at every step, so the search takes the same steps as one
// that recounts.
func (p *prog) greedy(cands [][]uint32) bool {
	total := len(p.cons)
	for _, seed := range [...]uint32{0, 1, 0xFFFFFFFF} {
		for slot, vs := range cands {
			// Prefer an in-candidate seed value.
			p.regs[slot] = vs[0]
			for _, v := range vs {
				if v == seed {
					p.regs[slot] = v
					break
				}
			}
		}
		best := 0
		for j := range p.cons {
			p.sat[j] = p.eval(int32(j))
			if p.sat[j] {
				best++
			}
		}
		for round := 0; round < 8 && best < total; round++ {
			improved := false
			for slot, vs := range cands {
				uses := p.uses[slot]
				others := best
				for _, j := range uses {
					if p.sat[j] {
						others--
					}
				}
				bestV, bestN := p.regs[slot], best
				for _, v := range vs {
					p.regs[slot] = v
					n := others
					for _, j := range uses {
						if p.eval(j) {
							n++
						}
					}
					if n > bestN {
						bestN, bestV = n, v
					}
				}
				p.regs[slot] = bestV
				for _, j := range uses {
					p.sat[j] = p.eval(j)
				}
				if bestN > best {
					best = bestN
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if best == total {
			return true
		}
	}
	return false
}
