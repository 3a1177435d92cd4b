// Package core wires DDT together: machine, kernel, symbolic hardware,
// checkers, annotations, scheduler, and the workload phases of the driver
// exerciser. Its Engine is what the public ddt package fronts.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/vm"
)

// Bug is one confirmed undesired behaviour, with everything §3.5 promises:
// the fault, its Table-2 classification, the execution trace of the path,
// and concrete inputs (a solved assignment of every symbolic value on the
// path) that make the driver re-execute the buggy path.
type Bug struct {
	// Class is the Table 2 bug category ("race condition", "resource
	// leak", "segmentation fault", "memory corruption", "kernel crash",
	// "deadlock", "hang").
	Class string
	// Fault is the raw failure.
	Fault *vm.Fault
	// Entry names the driver entry point being exercised.
	Entry string
	// StateID identifies the failing execution state.
	StateID uint64
	// ICount is the instruction count at failure (simulated time).
	ICount uint64
	// Trace is the full event path from the root to the failure.
	Trace []vm.Event
	// Model assigns a concrete value to every symbolic input on the path.
	Model expr.Assignment
	// Symbols describes the provenance of each symbolic input.
	Symbols []expr.SymbolInfo
	// InInterrupt reports whether the fault fired inside an injected ISR.
	InInterrupt bool
}

// Key is the deduplication identity of the bug: same class at the same
// driver location is one bug, however many paths reach it.
func (b *Bug) Key() string {
	return fmt.Sprintf("%s@%#x", b.Class, b.Fault.PC)
}

// Describe renders the one-line description used in reports (the "direct
// output from DDT" columns of Table 2).
func (b *Bug) Describe() string {
	return fmt.Sprintf("[%s] %s (entry %s, pc %#x)", b.Class, b.Fault.Msg, b.Entry, b.Fault.PC)
}

// Inputs renders the solved concrete inputs, grouped by origin — the
// evidence that lets a consumer replay the bug (§3.5).
func (b *Bug) Inputs() string {
	if len(b.Symbols) == 0 {
		return "(no symbolic inputs on this path)"
	}
	var sb strings.Builder
	for _, si := range b.Symbols {
		fmt.Fprintf(&sb, "  %-28s (%s, created at pc %#x) = %#x\n",
			si.Name, si.Origin, si.PC, b.Model[si.ID])
	}
	return sb.String()
}

// Report is the output of one DDT run.
type Report struct {
	Driver string
	// Bugs are deduplicated, in discovery order.
	Bugs []*Bug
	// PathsExplored counts completed execution paths.
	PathsExplored int
	// StatesForked counts state forks.
	StatesForked uint64
	// Instructions is total executed instructions (simulated time).
	Instructions uint64
	// BlocksCovered / BlocksStatic give the Figure 2 coverage ratio.
	BlocksCovered int
	BlocksStatic  int
	// CoverageSeries is the Figure 2/3 time series.
	CoverageSeries []CoveragePointOut
	// SolverQueries etc. for the efficiency section.
	SolverQueries uint64
	SymbolsMade   int
	// SolverUnknown counts the queries the solver could neither prove nor
	// refute. The exerciser treats such a branch side as infeasible, so
	// each one is coverage silently lost; a repeat answered from the cache
	// is not counted again.
	SolverUnknown uint64
	// SolverCacheHits / SolverCacheEvictions measure the shared query
	// cache: under parallel exploration one worker's Sat/Unsat answer is a
	// hit for every other worker, which is where the shared-cache speedup
	// comes from.
	SolverCacheHits      uint64
	SolverCacheEvictions uint64
	// Workers is how many exploration workers the run used (1 =
	// sequential).
	Workers int
	// Pipelined reports whether the run dissolved the workload phase
	// barriers (Options.Pipeline with Workers > 1).
	Pipelined bool
	// Phases is the per-phase outcome ledger in workload order. Barriered
	// runs fill the outcome columns; pipelined runs additionally record the
	// concurrency columns (peak in-flight / peak queued), which is how the
	// barrier-removal win shows up: a non-zero peak for phase k+1 while
	// phase k was still exiting paths.
	Phases []PhaseStat
}

// PhaseStat is one workload phase's outcome and (for pipelined runs)
// concurrency footprint.
type PhaseStat struct {
	// Name is the entry phase ("DriverEntry", "Initialize", "Send", ...).
	Name string
	// Exited counts completed paths in this phase.
	Exited int
	// Succeeded counts paths that exited with StatusSuccess.
	Succeeded int
	// Promoted counts successes that seeded a later phase (capped at
	// KeepStates).
	Promoted int
	// SeedsIn counts base states that were invoked into this phase.
	SeedsIn int
	// PeakInFlight is the maximum number of this phase's paths being
	// stepped at once (pipelined runs only).
	PeakInFlight int
	// PeakQueued is the maximum number of this phase's states waiting in
	// the frontier at once (pipelined runs only).
	PeakQueued int
}

// CoveragePointOut mirrors exerciser.CoveragePoint in the public report.
type CoveragePointOut struct {
	Instructions uint64
	Blocks       int
}

// RelativeCoverage returns covered/static, in [0,1].
func (r *Report) RelativeCoverage() float64 {
	if r.BlocksStatic == 0 {
		return 0
	}
	return float64(r.BlocksCovered) / float64(r.BlocksStatic)
}

// CountByClass tallies bugs per Table 2 category.
func (r *Report) CountByClass() map[string]int {
	out := make(map[string]int)
	for _, b := range r.Bugs {
		out[b.Class]++
	}
	return out
}

// String renders the report as the tool's console output.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DDT report for driver %q\n", r.Driver)
	fmt.Fprintf(&sb, "  paths explored: %d, forks: %d, instructions: %d, workers: %d\n",
		r.PathsExplored, r.StatesForked, r.Instructions, r.Workers)
	fmt.Fprintf(&sb, "  coverage: %d/%d basic blocks (%.0f%%)\n",
		r.BlocksCovered, r.BlocksStatic, 100*r.RelativeCoverage())
	fmt.Fprintf(&sb, "  solver: %d queries, %d unknown, %d cache hits, %d evictions\n",
		r.SolverQueries, r.SolverUnknown, r.SolverCacheHits, r.SolverCacheEvictions)
	if r.Pipelined {
		sb.WriteString("  pipelined phases (exited/succ/promoted, peak in-flight/queued):\n")
		for _, p := range r.Phases {
			fmt.Fprintf(&sb, "    %-20s %4d /%3d /%2d   peak %2d /%3d\n",
				p.Name, p.Exited, p.Succeeded, p.Promoted, p.PeakInFlight, p.PeakQueued)
		}
	}
	if len(r.Bugs) == 0 {
		sb.WriteString("  no bugs found\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  %d bug(s) found:\n", len(r.Bugs))
	classes := r.CountByClass()
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(&sb, "    %-20s %d\n", c, classes[c])
	}
	for i, b := range r.Bugs {
		fmt.Fprintf(&sb, "  bug %d: %s\n", i+1, b.Describe())
	}
	return sb.String()
}
