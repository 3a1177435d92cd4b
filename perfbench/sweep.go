package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/vm"
)

// target is one corpus driver variant with what its outputs are checked
// against.
type target struct {
	name    string
	variant corpus.Variant
	img     *binimg.Image
	// expected is the sorted multiset of bug classes a symbolic session
	// must report: the Table 2 classes for a buggy variant, none for a
	// fixed one.
	expected []string
	// leaders is the image's static basic-block leader set; coverage is
	// counted against it rather than taken from a report.
	leaders map[uint32]bool
}

// assemble builds a corpus image the way corpus.Build does on a cache
// miss. Set-up is repeated within a run to take its median, and
// corpus.Build would serve every repetition after the first from its
// process-wide cache.
func assemble(name string, v corpus.Variant) (target, error) {
	spec, ok := corpus.Get(name)
	if !ok {
		return target{}, fmt.Errorf("unknown corpus driver %q", name)
	}
	img, err := asm.Assemble(spec.Source(v))
	if err != nil {
		return target{}, fmt.Errorf("assembling %s (%s): %w", name, v, err)
	}
	tg := target{name: name, variant: v, img: img, leaders: make(map[uint32]bool)}
	if v == corpus.Buggy {
		tg.expected = sorted(spec.ExpectedBugs)
	}
	for _, pc := range binimg.StaticBlocks(img) {
		tg.leaders[pc] = true
	}
	return tg, nil
}

// splitCoverage counts covered PCs that are static block leaders and
// those that are not.
func (tg *target) splitCoverage(covered []uint32) (leaders, off int) {
	for _, pc := range covered {
		if tg.leaders[pc] {
			leaders++
		} else {
			off++
		}
	}
	return leaders, off
}

// sweepTargets assembles both variants of every corpus driver.
func sweepTargets() ([]target, error) {
	var out []target
	for _, name := range corpus.Names() {
		for _, v := range []corpus.Variant{corpus.Buggy, corpus.Fixed} {
			tg, err := assemble(name, v)
			if err != nil {
				return nil, err
			}
			out = append(out, tg)
		}
	}
	return out, nil
}

// sweptBug is a bug a sweep reported on a buggy variant.
type sweptBug struct {
	driver string
	bug    *core.Bug
}

// sweepStats is what one sweep did.
type sweepStats struct {
	items  int // sessions plus replays
	blocks int // covered static leaders, summed over sessions
	offPCs int // covered PCs that are not static leaders
	paths  uint64
	forks  uint64
	instrs uint64
	// queries and cacheHits are the sessions' solver counters.
	queries   uint64
	cacheHits uint64
	bugs      []sweptBug
	// unsupported counts bug traces trace.Replay cannot replay (see
	// replayUnsupported).
	unsupported int
}

// sweep runs one sequential DDT session on every target and replays every
// reported bug's trace, checking the bug-class set and each replay.
func sweep(ctx context.Context, tgs []target, tr *tracer, parent int64, t *tally) (sweepStats, error) {
	var st sweepStats
	for i := range tgs {
		tg := &tgs[i]
		opts := core.DefaultOptions()
		opts.Workers = 1
		sp := tr.begin(parent, "core.TestDriver", tg.name+"/"+tg.variant.String())
		eng := core.NewEngine(tg.img, opts)
		rep, err := eng.TestDriver(ctx)
		tr.end(sp)
		if err != nil {
			return st, fmt.Errorf("%s (%s): %w", tg.name, tg.variant, err)
		}
		st.items++
		classes := make([]string, len(rep.Bugs))
		for j, b := range rep.Bugs {
			classes[j] = b.Class
		}
		classes = sorted(classes)
		t.check(slices.Equal(classes, tg.expected), func() string {
			return fmt.Sprintf("%s (%s): bug classes %q, want %q", tg.name, tg.variant, classes, tg.expected)
		})
		leaders, off := tg.splitCoverage(eng.Cov.CoveredBlocks())
		st.blocks += leaders
		st.offPCs += off
		st.paths += uint64(rep.PathsExplored)
		st.forks += rep.StatesForked
		st.instrs += rep.Instructions
		st.queries += rep.SolverQueries
		st.cacheHits += rep.SolverCacheHits
		for _, b := range rep.Bugs {
			tf := trace.New(b, tg.img.Name, opts.Annotations, eng.EffectiveRegistry())
			sp := tr.begin(parent, "trace.Replay", tg.name)
			res, err := trace.Replay(tf, tg.img)
			tr.end(sp)
			st.items++
			if tg.variant == corpus.Buggy {
				st.bugs = append(st.bugs, sweptBug{tg.name, b})
			}
			if err == nil && replayUnsupported(tg.img, res) {
				st.unsupported++
				continue
			}
			t.check(err == nil && res.Reproduced, func() string {
				return fmt.Sprintf("%s: trace of %s does not replay: %v %v", tg.name, b.Key(), err, res)
			})
		}
	}
	return st, nil
}

// replayUnsupported reports whether a replay stopped because trace.Replay
// cannot resolve one of the trace's entry points on this image. It
// resolves NDIS miniport and WDM audio entries only, so the trace of a
// storage-miniport bug stops at its first entry after DriverEntry. That
// is a gap in the replayer, not a wrong answer: the run counts and prints
// such replays (trace.replay_unsupported) instead of failing them. Any
// other replay that does not reproduce its bug is a failed check.
func replayUnsupported(img *binimg.Image, res *trace.Result) bool {
	return img.Device.Class == binimg.ClassStorage && !res.Reproduced &&
		len(res.Divergences) == 1 && strings.HasPrefix(res.Divergences[0], "entry ") &&
		strings.Contains(res.Divergences[0], " unresolvable at step ")
}

// replayQuery is one feasibility query the engine issued at a symbolic
// branch of a bug's path, rebuilt from the bug's trace.
type replayQuery struct {
	driver string
	pc     uint32
	cs     []*expr.Expr
	// taken is the side the path followed: it must hold under the bug's
	// model and be satisfiable. The other side is satisfiable exactly
	// where the engine forked.
	taken  bool
	forked bool
	// pinned is set when a concretization came before the branch on the
	// path. The engine pins a concretized expression with Eq(e, val), but
	// the trace records only the value, so the rebuilt prefix is weaker
	// than the engine's and an unforked other side may answer Sat.
	pinned bool
	model  expr.Assignment
}

// domainConstraints returns the constraints the workload attaches to a
// fresh symbol of this name without recording them as branches: the
// packet length lies in [14, 64] (core.makeSymbolicPacket) and an
// annotated registry integer is non-negative (annot). Without them a
// rebuilt query is weaker than the engine's. They copy the constraints
// added next to FreshSymbol in internal/core/workload.go and to
// NewSymbol in internal/annot/annot.go, and must follow those.
func domainConstraints(ev vm.Event) []*expr.Expr {
	s := expr.Sym(ev.Sym)
	switch {
	case ev.Name == "packet_len":
		return []*expr.Expr{expr.UGe(s, expr.Const(14)), expr.ULe(s, expr.Const(64))}
	case ev.Name == "registry_value":
		return []*expr.Expr{expr.SGe(s, expr.Const(0))}
	}
	return nil
}

// replaySet rebuilds, for every branch with a symbolic condition on every
// bug's path, the engine's two feasibility queries: prefix ∧ taken
// direction and prefix ∧ the other direction. Event.Cond is stored
// un-negated; Taken gives the direction.
func replaySet(bugs []sweptBug) []replayQuery {
	var out []replayQuery
	for _, sb := range bugs {
		var prefix []*expr.Expr
		pinned := false
		for _, ev := range sb.bug.Trace {
			if ev.Kind == vm.EvConcretize {
				pinned = true
				continue
			}
			if ev.Kind == vm.EvNewSym {
				prefix = append(prefix, domainConstraints(ev)...)
				continue
			}
			if ev.Kind != vm.EvBranch || ev.Cond == nil || ev.Cond.IsConst() {
				continue
			}
			taken, other := ev.Cond, expr.LogicalNot(ev.Cond)
			if !ev.Taken {
				taken, other = other, taken
			}
			base := prefix[:len(prefix):len(prefix)]
			out = append(out,
				replayQuery{driver: sb.driver, pc: ev.PC, cs: append(base, taken), taken: true, forked: ev.Forked, pinned: pinned, model: sb.bug.Model},
				replayQuery{driver: sb.driver, pc: ev.PC, cs: append(base, other), forked: ev.Forked, pinned: pinned})
			prefix = append(prefix, taken)
		}
	}
	return out
}

// solverCheck answers q with a fresh solver, so no cache is shared between
// queries.
func solverCheck(q *replayQuery, tr *tracer, parent int64) solver.Result {
	s := solver.New()
	sp := tr.begin(parent, "solver.Check", q.driver)
	res, _ := s.Check(q.cs)
	tr.end(sp)
	return res
}

// checkReplaySet checks every rebuilt query: the taken side holds under
// the bug's model, and the other side answers Sat at forked branches and
// anything but Sat at unforked ones whose prefix is complete (see
// replayQuery.pinned). It returns how many queries are known feasible and
// how many of those the solver did not answer Sat.
func checkReplaySet(qs []replayQuery, tr *tracer, parent int64, t *tally) (feasible, unknown int) {
	for i := range qs {
		q := &qs[i]
		res := solverCheck(q, tr, parent)
		switch {
		case q.taken:
			holds := true
			for _, c := range q.cs {
				if expr.Eval(c, q.model) == 0 {
					holds = false
				}
			}
			t.check(holds, func() string {
				return fmt.Sprintf("%s: taken side at %#x is false under the bug's model", q.driver, q.pc)
			})
		case q.forked:
			t.check(res == solver.Sat, func() string {
				return fmt.Sprintf("%s: other side of forked branch at %#x answers %v", q.driver, q.pc, res)
			})
		case !q.pinned:
			t.check(res != solver.Sat, func() string {
				return fmt.Sprintf("%s: other side of unforked branch at %#x answers Sat", q.driver, q.pc)
			})
		}
		if q.taken || q.forked {
			feasible++
			if res != solver.Sat {
				unknown++
			}
		}
	}
	return feasible, unknown
}

// unchecked counts the unforked other sides that checkReplaySet cannot
// require to be infeasible, because their prefix lacks a concretization's
// pin.
func unchecked(qs []replayQuery) int {
	n := 0
	for _, q := range qs {
		if !q.taken && !q.forked && q.pinned {
			n++
		}
	}
	return n
}

// driverNames lists the corpus drivers, sorted, for stable metric order.
func driverNames() []string {
	names := corpus.Names()
	sort.Strings(names)
	return names
}
