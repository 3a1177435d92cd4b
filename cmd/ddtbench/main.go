// Command ddtbench regenerates every table and figure of the paper's
// evaluation section as text.
//
// Usage:
//
//	ddtbench            run everything
//	ddtbench -table1    driver characteristics (Table 1)
//	ddtbench -table2    bug discovery (Table 2)
//	ddtbench -fig2      relative coverage vs time (Figure 2)
//	ddtbench -fig3      absolute coverage vs time (Figure 3)
//	ddtbench -dv        Driver Verifier baseline (§5.1)
//	ddtbench -sdv       SDV comparison (§5.1)
//	ddtbench -ablation  annotation ablation (§5.1)
//	ddtbench -fuzz      fuzzer throughput + fuzz/symbolic/hybrid coverage
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/fuzz"
)

func main() {
	t1 := flag.Bool("table1", false, "Table 1: driver characteristics")
	t2 := flag.Bool("table2", false, "Table 2: bugs discovered")
	f2 := flag.Bool("fig2", false, "Figure 2: relative coverage vs time")
	f3 := flag.Bool("fig3", false, "Figure 3: absolute coverage vs time")
	dv := flag.Bool("dv", false, "Driver Verifier baseline")
	sdvF := flag.Bool("sdv", false, "SDV comparison")
	abl := flag.Bool("ablation", false, "annotation ablation")
	fz := flag.Bool("fuzz", false, "fuzzer throughput and mode comparison")
	par := flag.Bool("parallel", false, "parallel exploration scaling and solver-cache stats")
	pipe := flag.Bool("pipeline", false, "cross-phase pipelined exploration: barriered vs pipelined wall clock and per-phase concurrency")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected sections to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	// -pipeline is this command's report-section selector, so only the
	// non-conflicting subset of the uniform campaign flag surface registers.
	cf := campaign.RegisterFlags(flag.CommandLine, campaign.FlagWorkers|campaign.FlagSeed|campaign.FlagTimeout)
	flag.Parse()

	// Profile wiring matches ddtfuzz: CPU profile brackets the run,
	// heap profile snapshots retained memory at exit.
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(pf))
		defer pf.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	all := !*t1 && !*t2 && !*f2 && !*f3 && !*dv && !*sdvF && !*abl && !*fz && !*par && !*pipe

	if all || *t1 {
		infos, err := experiments.Table1()
		check(err)
		fmt.Println("== Table 1: characteristics of the evaluation drivers ==")
		fmt.Print(experiments.FormatTable1(infos))
		fmt.Println()
	}
	if all || *t2 {
		rows, err := experiments.Table2()
		check(err)
		fmt.Println("== Table 2: previously unknown bugs discovered by DDT ==")
		fmt.Print(experiments.FormatTable2(rows))
		for _, r := range rows {
			status := "MATCHES Table 2"
			if !r.Matches() {
				status = "MISMATCH vs Table 2"
			}
			fmt.Printf("  %-18s %d bug(s) in %v  [%s]\n",
				r.Driver, len(r.Report.Bugs), r.Elapsed.Round(1e6), status)
		}
		fmt.Println()
	}
	var covRuns []experiments.CoverageRun
	if all || *f2 || *f3 {
		var err error
		covRuns, err = experiments.Coverage()
		check(err)
	}
	if all || *f2 {
		fmt.Println("== Figure 2 ==")
		fmt.Print(experiments.FormatCoverage(covRuns, true))
		fmt.Println()
	}
	if all || *f3 {
		fmt.Println("== Figure 3 ==")
		fmt.Print(experiments.FormatCoverage(covRuns, false))
		fmt.Println()
	}
	if all || *dv {
		res, err := experiments.DriverVerifier()
		check(err)
		fmt.Println("== Driver Verifier baseline (concrete stress; paper: finds 0 of 14) ==")
		for _, r := range res {
			fmt.Printf("  %-18s %d bug(s) found\n", r.Driver, r.BugsSeen)
		}
		fmt.Println()
	}
	if all || *sdvF {
		cmp, err := experiments.RunSDVComparison()
		check(err)
		fmt.Println("== SDV comparison (§5.1) ==")
		fmt.Print(cmp.Format())
		fmt.Println()
	}
	if all || *abl {
		rows, err := experiments.Ablation()
		check(err)
		fmt.Println("== Annotation ablation (§5.1) ==")
		fmt.Print(experiments.FormatAblation(rows))
		fmt.Println()
	}
	if all || *fz {
		check(fuzzSection(cf.Seed, cf.Timeout))
	}
	if all || *par {
		check(parallelSection(cf.Workers))
	}
	if all || *pipe {
		check(pipelineSection(cf.Workers))
	}
}

// pipelineSection compares barriered and cross-phase pipelined exploration
// at the same worker count: wall clock, bug count, and — the point of the
// exercise — the per-phase concurrency ledger. A non-zero peak in-flight
// for a phase while its predecessor was still exiting paths is the barrier
// removal made visible.
func pipelineSection(flagWorkers int) error {
	fmt.Println("== Cross-phase pipelined exploration ==")
	fmt.Printf("  host CPUs: %d\n", runtime.NumCPU())
	w := flagWorkers
	if w < 2 {
		w = 4
	}
	for _, driver := range []string{"rtl8029", "amd-pcnet"} {
		for _, pipelined := range []bool{false, true} {
			img, err := corpus.Build(driver, corpus.Buggy)
			if err != nil {
				return err
			}
			opts := core.DefaultOptions()
			opts.Workers = w
			opts.Pipeline = pipelined
			eng := core.NewEngine(img, opts)
			start := time.Now()
			rep, err := eng.TestDriver(context.Background())
			if err != nil {
				return err
			}
			mode := "barriered"
			if pipelined {
				mode = "pipelined"
			}
			fmt.Printf("  %-10s workers=%d %-9s elapsed=%-12v bugs=%d paths=%d\n",
				driver, w, mode, time.Since(start).Round(time.Microsecond),
				len(rep.Bugs), rep.PathsExplored)
			if pipelined {
				fmt.Println("    phase                exited  succ  promoted  peak-inflight  peak-queued")
				for _, p := range rep.Phases {
					fmt.Printf("    %-20s %6d %5d %9d %14d %12d\n",
						p.Name, p.Exited, p.Succeeded, p.Promoted, p.PeakInFlight, p.PeakQueued)
				}
			}
		}
	}
	return nil
}

// parallelSection measures the concurrent symbolic frontier: wall clock and
// shared-solver-cache behaviour of full rtl8029 sessions at increasing
// worker counts. On a multi-core host the elapsed column is the scaling
// curve; everywhere, the cache columns show how many queries the shared
// cache answered for the whole worker fleet.
func parallelSection(flagWorkers int) error {
	fmt.Println("== Parallel symbolic exploration (rtl8029) ==")
	fmt.Printf("  host CPUs: %d\n", runtime.NumCPU())
	counts := []int{1, 2, 4}
	if flagWorkers > 1 && flagWorkers != 2 && flagWorkers != 4 {
		counts = append(counts, flagWorkers)
	}
	for _, w := range counts {
		img, err := corpus.Build("rtl8029", corpus.Buggy)
		if err != nil {
			return err
		}
		opts := core.DefaultOptions()
		opts.Workers = w
		eng := core.NewEngine(img, opts)
		start := time.Now()
		rep, err := eng.TestDriver(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("  workers=%d  elapsed=%-12v bugs=%d paths=%-4d queries=%-5d unknown=%d cache hits=%d evictions=%d\n",
			w, time.Since(start).Round(time.Microsecond), len(rep.Bugs), rep.PathsExplored,
			rep.SolverQueries, rep.SolverUnknown, rep.SolverCacheHits, rep.SolverCacheEvictions)
	}
	return nil
}

// fuzzSection reports the concolic fuzzing subsystem's two headline
// numbers: concrete execution throughput (vs one symbolic session) and the
// coverage of fuzz / symbolic / hybrid exploration under equal budgets.
func fuzzSection(seed int64, timeout time.Duration) error {
	fmt.Println("== Concolic fuzzing: throughput and mode comparison ==")
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		return err
	}
	fcfg := fuzz.DefaultConfig()
	fcfg.Workers = 4
	fcfg.MaxExecs = 10_000
	fcfg.Seed = seed
	fcfg.Duration = timeout
	frep, err := fuzz.New(img, fcfg).Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("  rtl8029: %d execs at %.0f execs/sec (%d workers), %d/%d blocks, %d deduped crash(es)\n",
		frep.Execs, frep.ExecsPerSec, frep.Workers,
		frep.BlocksCovered, frep.BlocksStatic, len(frep.Crashes))

	pcnet, err := corpus.Build("amd-pcnet", corpus.Buggy)
	if err != nil {
		return err
	}
	hcfg := fuzz.DefaultConfig()
	hcfg.Workers = 2
	hcfg.MaxExecs = 2_000
	hcfg.Seed = seed
	hcfg.Duration = timeout
	pf, err := fuzz.New(pcnet, hcfg).Run(context.Background())
	if err != nil {
		return err
	}
	eng := core.NewEngine(pcnet, core.DefaultOptions())
	ps, err := eng.TestDriver(context.Background())
	if err != nil {
		return err
	}
	ph, err := fuzz.Hybrid(context.Background(), pcnet, hcfg, core.DefaultOptions(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("  amd-pcnet coverage (of %d static blocks): fuzz %d, symbolic %d, hybrid %d\n",
		pf.BlocksStatic, pf.BlocksCovered, ps.BlocksCovered, ph.Fuzz.BlocksCovered)
	fmt.Printf("  amd-pcnet bug keys: fuzz %d, symbolic %d, hybrid %d\n",
		len(pf.Crashes), len(ps.Bugs), ph.TotalBugKeys())
	return nil
}

// writeHeapProfile snapshots the live heap (after a forced GC, so the
// profile reflects retained objects rather than garbage awaiting collection)
// into a pprof file.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	check(err)
	defer f.Close()
	runtime.GC()
	check(pprof.WriteHeapProfile(f))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddtbench:", err)
		os.Exit(2)
	}
}
