package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/corpus"
	"repro/internal/fuzz"
)

// fuzzDrivers is one fuzzable driver per device class: NDIS, WDM audio,
// and storage (which runs the PnP scenario graph).
var fuzzDrivers = []string{"rtl8029", "ensoniq-audiopci", "promise-ultra133"}

const (
	// fuzzWorkers is the campaign worker count: one per CPU of the
	// two-core hosts the benchmark is sized for.
	fuzzWorkers = 2
	// fuzzBudget is the exec budget of one campaign. Below about 40k execs
	// rtl8029 sometimes misses its segmentation fault; at 60k every
	// expected class turned up on every seed tried.
	fuzzBudget = 60_000
)

// fuzzTargets assembles the buggy variant of each fuzz driver.
func fuzzTargets() ([]target, error) {
	var out []target
	for _, name := range fuzzDrivers {
		tg, err := assemble(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		out = append(out, tg)
	}
	return out, nil
}

// fuzzRun is one finished fuzz campaign.
type fuzzRun struct {
	tg  *target
	fz  *fuzz.Fuzzer
	rep *fuzz.Report
	// wall and cpu are the wall time and the process CPU time of
	// fuzz.Fuzzer.Run.
	wall, cpu time.Duration
	// leaders and offPCs split the covered PCs by whether they are static
	// block leaders.
	leaders, offPCs int
}

// runCampaign runs one persistent-mode campaign with a fixed exec budget.
// wall and cpu cover fuzz.Fuzzer.Run only; building the fuzzer is set-up.
func runCampaign(ctx context.Context, tg *target, workers int, budget uint64, seed int64, tr *tracer, parent int64) (*fuzzRun, error) {
	cfg := fuzz.DefaultConfig()
	cfg.Workers = workers
	cfg.MaxExecs = budget
	cfg.Seed = seed
	cfg.Persist = true
	fz := fuzz.New(tg.img, cfg)
	sp := tr.begin(parent, "fuzz.Fuzzer.Run", tg.name)
	start, cpu0 := time.Now(), cpuTime()
	rep, err := fz.Run(ctx)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fuzzing %s: %w", tg.name, err)
	}
	c := &fuzzRun{tg: tg, fz: fz, rep: rep, wall: wall, cpu: cpu}
	c.leaders, c.offPCs = tg.splitCoverage(fz.Cov.CoveredBlocks())
	return c, nil
}

// checkCampaign checks that every crash feed replays, under the report's
// executor options, to the same crash key, and that every expected bug
// class turned up within the budget.
func checkCampaign(c *fuzzRun, tr *tracer, parent int64, t *tally) {
	found := make(map[string]bool)
	for _, cr := range c.rep.Crashes {
		found[cr.Class] = true
		sp := tr.begin(parent, "fuzz.Executor.Run", "replay")
		res := fuzz.NewExecutor(c.tg.img, nil, c.rep.Exec).Run(cr.Feed)
		tr.end(sp)
		t.check(res.Crash != nil && res.Crash.Key() == cr.Key(), func() string {
			got := "no crash"
			if res.Crash != nil {
				got = res.Crash.Key()
			}
			return fmt.Sprintf("%s: crash %s replays to %s", c.tg.name, cr.Key(), got)
		})
	}
	for _, class := range slices.Compact(slices.Clone(c.tg.expected)) {
		t.check(found[class], func() string {
			return fmt.Sprintf("%s: expected class %q not found in %d execs", c.tg.name, class, c.rep.Execs)
		})
	}
}

// roundStats is what one fuzz round did.
type roundStats struct {
	wall    time.Duration // sum of campaign walls
	cpu     time.Duration // sum of campaign CPU times
	execs   uint64
	leaders int
	offPCs  int
}

// fuzzRound runs one fixed-budget campaign per fuzz driver and checks
// each.
func fuzzRound(ctx context.Context, tgs []target, seed int64, tr *tracer, parent int64, t *tally) (roundStats, []*fuzzRun, error) {
	var st roundStats
	var cs []*fuzzRun
	for i := range tgs {
		c, err := runCampaign(ctx, &tgs[i], fuzzWorkers, fuzzBudget, seed+int64(i), tr, parent)
		if err != nil {
			return st, nil, err
		}
		checkCampaign(c, tr, parent, t)
		st.wall += c.wall
		st.cpu += c.cpu
		st.execs += c.rep.Execs
		st.leaders += c.leaders
		st.offPCs += c.offPCs
		cs = append(cs, c)
	}
	return st, cs, nil
}
