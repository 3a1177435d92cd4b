package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/vm"
)

// seedGolden pins the exact results of the sequential engine. A workers=1
// run must reproduce them bit-for-bit: same bug set, same path count, same
// coverage, same fork/instruction/query totals. Any drift here means a
// change altered sequential semantics, not just structure.
//
// Re-pinned when the interrupt-injection budget became path-global: the
// old per-phase counter reset granted every phase a fresh entry-sibling
// fork, so the fixed budget explores fewer (now correctly capped) paths.
// Bug sets and coverage are unchanged.
var seedGolden = map[string]struct {
	bugs    []string
	paths   int
	covered int
	static  int
	forks   uint64
	instr   uint64
	queries uint64
}{
	"amd-pcnet": {
		bugs:  []string{"resource leak@0x1000f8", "resource leak@0x100298"},
		paths: 91, covered: 339, static: 413, forks: 91, instr: 4729, queries: 102,
	},
	"rtl8029": {
		bugs: []string{
			"memory corruption@0x100150",
			"race condition@0x100860",
			"resource leak@0x100060",
			"segmentation fault@0x1004b0",
			"segmentation fault@0x100630",
		},
		paths: 473, covered: 222, static: 265, forks: 652, instr: 12734, queries: 1229,
	},
}

func sortedBugKeys(rep *Report) []string {
	keys := make([]string, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		keys = append(keys, b.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestSequentialMatchesSeedEngine: the workers=1 engine is equivalent to
// the pre-refactor sequential engine on the golden drivers.
func TestSequentialMatchesSeedEngine(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 1
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s: bug set %v, seed engine found %v", driver, got, want.bugs)
		}
		if rep.PathsExplored != want.paths {
			t.Errorf("%s: paths = %d, seed %d", driver, rep.PathsExplored, want.paths)
		}
		if rep.BlocksCovered != want.covered || rep.BlocksStatic != want.static {
			t.Errorf("%s: coverage = %d/%d, seed %d/%d",
				driver, rep.BlocksCovered, rep.BlocksStatic, want.covered, want.static)
		}
		if rep.StatesForked != want.forks {
			t.Errorf("%s: forks = %d, seed %d", driver, rep.StatesForked, want.forks)
		}
		if rep.Instructions != want.instr {
			t.Errorf("%s: instructions = %d, seed %d", driver, rep.Instructions, want.instr)
		}
		if rep.SolverQueries != want.queries {
			t.Errorf("%s: solver queries = %d, seed %d", driver, rep.SolverQueries, want.queries)
		}
	}
}

// TestWorkersZeroIsSequential: Workers=0 (the zero value) must behave as
// the sequential engine, so existing callers see no change.
func TestWorkersZeroIsSequential(t *testing.T) {
	want := seedGolden["amd-pcnet"]
	rep := runDDT(t, "amd-pcnet", corpus.Buggy, DefaultOptions()) // Workers zero value
	if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
		t.Errorf("bug set %v, want %v", got, want.bugs)
	}
	if rep.Instructions != want.instr || rep.PathsExplored != want.paths {
		t.Errorf("paths/instr = %d/%d, want %d/%d",
			rep.PathsExplored, rep.Instructions, want.paths, want.instr)
	}
	if rep.Workers != 1 {
		t.Errorf("report workers = %d, want 1", rep.Workers)
	}
}

// TestParallelExploreFindsSameBugs: the workers=4 engine must find exactly
// the same bug set as the sequential engine on the golden drivers (run in
// CI under -race — this is also the parallel engine's race regression
// test). Path ORDER and count may differ (the path budget is a global
// bound over a racy schedule); the bug set and coverage must not shrink.
func TestParallelExploreFindsSameBugs(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 4
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s workers=4: bug set %v, sequential found %v", driver, got, want.bugs)
		}
		if rep.BlocksCovered < want.covered {
			t.Errorf("%s workers=4: coverage %d below sequential %d",
				driver, rep.BlocksCovered, want.covered)
		}
		if rep.Workers != 4 {
			t.Errorf("%s: report workers = %d, want 4", driver, rep.Workers)
		}
	}
}

// TestParallelFixedVariantIsClean: zero false positives must hold under
// parallelism too — the corrected rtl8029 finds nothing with 4 workers.
func TestParallelFixedVariantIsClean(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	rep := runDDT(t, "rtl8029", corpus.Fixed, opts)
	if len(rep.Bugs) != 0 {
		t.Errorf("fixed rtl8029 with 4 workers reported %d bug(s): %v",
			len(rep.Bugs), sortedBugKeys(rep))
	}
}

// TestParallelStopAtFirstBug: the early-exit policy works across workers.
func TestParallelStopAtFirstBug(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.StopAtFirstBug = true
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)
	if len(rep.Bugs) == 0 {
		t.Fatal("no bug found with StopAtFirstBug")
	}
}

// TestParallelReportsCacheStats: a parallel run must surface shared-cache
// counters in the report (they are how the shared-cache win is measured).
func TestParallelReportsCacheStats(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	rep := runDDT(t, "amd-pcnet", corpus.Buggy, opts)
	if rep.SolverQueries == 0 {
		t.Error("no solver queries aggregated across workers")
	}
	// Hits/evictions may legitimately be 0 on a small driver; the point is
	// the fields exist and the query aggregate includes worker solvers.
	t.Logf("queries=%d hits=%d evictions=%d",
		rep.SolverQueries, rep.SolverCacheHits, rep.SolverCacheEvictions)
}

// TestSolverUnknownReported: queries the solver can neither prove nor
// refute are counted in the report, on the engine's own solver and summed
// over retired worker solvers, and Report.String prints the count. The
// solvers are fed queries outside the fragment the solver decides (a
// square equal to 2, 3, 6 or 7, which no 32-bit word is), so the test does
// not depend on which corpus queries the solver leaves undecided today.
func TestSolverUnknownReported(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(img, DefaultOptions())
	x := expr.Sym(0)
	undecided := func(s *solver.Solver, k uint32) {
		t.Helper()
		if res, _ := s.Check([]*expr.Expr{expr.Eq(expr.Mul(x, x), expr.Const(k))}); res != solver.Unknown {
			t.Fatalf("x*x == %d: %v, want unknown", k, res)
		}
	}
	undecided(e.M.Solver, 2)
	workers := []*vm.ExecContext{e.M.NewContext(solver.New()), e.M.NewContext(solver.New())}
	undecided(workers[0].Solver, 3)
	undecided(workers[1].Solver, 6)
	undecided(workers[1].Solver, 7)
	e.mu.Lock()
	e.retireSolvers(workers)
	e.mu.Unlock()

	rep := e.Report()
	if rep.SolverUnknown != 4 || rep.SolverQueries != 4 {
		t.Errorf("%d unknown of %d queries, want 4 of 4", rep.SolverUnknown, rep.SolverQueries)
	}
	if want := "4 queries, 4 unknown"; !strings.Contains(rep.String(), want) {
		t.Errorf("report does not show %q:\n%s", want, rep)
	}

	// A session's count covers its real queries too, sequential and
	// parallel.
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		rep := runDDT(t, "intel-pro100", corpus.Buggy, opts)
		if rep.SolverUnknown > rep.SolverQueries {
			t.Errorf("workers=%d: %d unknown of %d queries", workers, rep.SolverUnknown, rep.SolverQueries)
		}
		if want := fmt.Sprintf("%d unknown", rep.SolverUnknown); !strings.Contains(rep.String(), want) {
			t.Errorf("workers=%d: report does not show %q", workers, want)
		}
	}
}
