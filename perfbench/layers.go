package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/fuzz"
	"repro/internal/vm"
)

const (
	// evalBatch is how many expr.Eval calls one span times: a single call
	// is shorter than the clock's overhead.
	evalBatch = 64
	// scaleBudget is the exec budget of each side of the 2-vs-1 worker
	// comparison.
	scaleBudget = fuzzBudget / 2
	// apiSample is how many feeds per driver are re-run traced to count
	// kernel API calls.
	apiSample = 32
	// runnerItems is the item budget of the no-op campaign runner.
	runnerItems = 200_000
)

// layerSuite runs every layer once under the tracer and derives the
// per-layer metrics from the spans and the reports. Its work does not
// depend on the workload, so every traced run reports every metric.
func layerSuite(ctx context.Context, o *options, tr *tracer, t *tally) (map[string]metric, error) {
	r := &layerReport{out: make(map[string]metric), t: t}
	root := tr.begin(0, "bench.layers", "")
	defer tr.end(root)
	for _, layers := range []func(context.Context, *options, *tracer, int64, *layerReport) error{symbolicLayers, fuzzLayers, fleetLayers} {
		if err := layers(ctx, o, tr, root, r); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// layerReport collects per-layer metrics.
type layerReport struct {
	out map[string]metric
	t   *tally
}

func (r *layerReport) put(name string, v float64, unit string) { r.out[name] = metric{v, unit} }

// dist reports the p-quantile of per-operation span durations, in ns
// divided by scale. A tail percentile without enough samples beyond it is
// a failed check, not a number.
func (r *layerReport) dist(name string, xs []float64, p, scale float64, unit string) {
	v := median(xs)
	if p != 0.5 {
		var ok bool
		if v, ok = percentile(xs, p); !ok {
			r.t.check(false, func() string { return fmt.Sprintf("%s: %d samples are too few", name, len(xs)) })
		}
	}
	r.put(name, v/scale, unit)
}

// symbolicLayers measures corpus, core, trace, solver and expr: cold
// corpus builds, one traced sweep, and the solver replay set built from
// its bug traces.
func symbolicLayers(ctx context.Context, o *options, tr *tracer, root int64, r *layerReport) error {
	t := r.t
	// The process cache is cold, so every call assembles.
	for _, name := range corpus.Names() {
		for _, v := range []corpus.Variant{corpus.Buggy, corpus.Fixed} {
			sp := tr.begin(root, "corpus.Build", name+"/"+v.String())
			_, err := corpus.Build(name, v)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	r.dist("corpus.build_ms", tr.perOp("corpus.Build", "*"), 0.5, 1e6, "ms")

	tgs, err := sweepTargets()
	if err != nil {
		return err
	}
	mem0 := readMem()
	sp := tr.begin(root, "bench.sweep", "")
	st, err := sweep(ctx, tgs, tr, sp, t)
	tr.end(sp)
	if err != nil {
		return err
	}
	mem1 := readMem()
	for _, d := range driverNames() {
		total := 0.0
		for _, v := range []corpus.Variant{corpus.Buggy, corpus.Fixed} {
			total += median(tr.perOp("core.TestDriver", d+"/"+v.String()))
		}
		r.put("core.session_ms."+d, total/1e6, "ms")
	}
	r.put("core.paths", float64(st.paths), "count")
	r.put("core.forks", float64(st.forks), "count")
	r.put("core.instructions", float64(st.instrs), "count")
	r.put("mem.allocs_per_path", float64(mem1.mallocs-mem0.mallocs)/float64(st.paths), "allocs")
	r.dist("trace.replay_ms", tr.perOp("trace.Replay", "*"), 0.5, 1e6, "ms")
	r.put("trace.replay_unsupported", float64(st.unsupported), "count")
	r.put("solver.queries", float64(st.queries), "count")
	r.put("solver.cache_hit_ratio", float64(st.cacheHits)/float64(st.queries), "ratio")

	// The replay set is checked once, then re-answered until the p99 has
	// enough samples.
	qs := replaySet(st.bugs)
	sp = tr.begin(root, "bench.replay-set", "")
	feasible, unknown := checkReplaySet(qs, tr, sp, t)
	for len(tr.perOp("solver.Check", "*")) < samplesFor(0.99) {
		for i := range qs {
			solverCheck(&qs[i], tr, sp)
		}
	}
	for _, q := range qs {
		if !q.taken {
			continue
		}
		for _, c := range q.cs {
			esp := tr.begin(sp, "expr.Eval", q.driver)
			for k := 0; k < evalBatch; k++ {
				expr.Eval(c, q.model)
			}
			tr.endN(esp, evalBatch)
		}
	}
	tr.end(sp)
	checks := tr.perOp("solver.Check", "*")
	r.dist("solver.check_us.p50", checks, 0.5, 1e3, "us")
	r.dist("solver.check_us.p99", checks, 0.99, 1e3, "us")
	r.put("solver.unknown_ratio", float64(unknown)/float64(feasible), "ratio")
	r.dist("expr.eval_ns", tr.perOp("expr.Eval", "*"), 0.5, 1, "ns")
	return nil
}

// fuzzLayers measures fuzz, vm, kernel, campaign, memory and GC: one
// round of the fuzz-steady campaigns, crash triage, the 2-vs-1 worker
// scale-out, executor runs over the final corpora, and a no-op campaign
// runner.
func fuzzLayers(ctx context.Context, o *options, tr *tracer, root int64, r *layerReport) error {
	ftgs, err := fuzzTargets()
	if err != nil {
		return err
	}
	mem0, cpu0 := readMem(), readCPU()
	sp := tr.begin(root, "bench.fuzz-round", "")
	_, cs, err := fuzzRound(ctx, ftgs, o.seed*1000, tr, sp, r.t)
	tr.end(sp)
	if err != nil {
		return err
	}
	mem1, cpu1 := readMem(), readCPU()
	var execs, triage, warm, cold, hits, lookups, offPCs uint64
	for _, c := range cs {
		rep := c.rep
		execs += rep.Execs
		triage += rep.TriageExecs
		warm += rep.WarmExecs
		cold += rep.ColdExecs
		hits += rep.SnapHits + rep.SnapSharedHits
		lookups += rep.SnapHits + rep.SnapSharedHits + rep.SnapMisses
		offPCs += uint64(c.offPCs)
	}
	r.put("fuzz.triage_share", float64(triage)/float64(execs), "ratio")
	r.put("fuzz.warm_ratio", float64(warm)/float64(warm+cold), "ratio")
	r.put("fuzz.snap_hit_ratio", float64(hits)/float64(lookups), "ratio")
	r.put("fuzz.cov_offleader_pcs", float64(offPCs), "pcs")
	r.put("mem.allocs_per_exec", float64(mem1.mallocs-mem0.mallocs)/float64(execs), "allocs")
	r.put("mem.bytes_per_exec", float64(mem1.bytes-mem0.bytes)/float64(execs), "B")
	r.put("gc.cpu_share", (cpu1.gc-cpu0.gc)/(cpu1.total-cpu0.total), "ratio")

	// Triage: RunTraced per crash feed, on an executor built beforehand.
	for _, c := range cs {
		for _, cr := range c.rep.Crashes {
			ex := fuzz.NewExecutor(c.tg.img, nil, c.rep.Exec)
			esp := tr.begin(root, "fuzz.Executor.RunTraced", "triage")
			ex.RunTraced(cr.Feed)
			tr.end(esp)
		}
	}
	r.dist("fuzz.triage_us", tr.perOp("fuzz.Executor.RunTraced", "triage"), 0.5, 1e3, "us")

	// Scale-out: the same seed and budget at one and at two workers.
	var rate [2]float64
	for w := 1; w <= 2; w++ {
		c, err := runCampaign(ctx, &ftgs[0], w, scaleBudget, o.seed*1000, tr, root)
		if err != nil {
			return err
		}
		rate[w-1] = float64(c.rep.Execs) / c.wall.Seconds()
	}
	r.put("fuzz.scale_2v1", rate[1]/rate[0], "ratio")

	// Executor: cold runs and warm persistent runs over each final corpus,
	// and traced re-runs of a sample to count kernel API calls.
	var warmNS, warmInstrs, apiCalls, traced float64
	type warmed struct {
		ex    *fuzz.Executor
		feeds []*fuzz.Feed
	}
	var ws []warmed
	for _, c := range cs {
		feeds := c.fz.Corpus().Snapshot()
		copts := c.rep.Exec
		copts.Persist, copts.Fabric = false, nil
		cex := fuzz.NewExecutor(c.tg.img, nil, copts)
		for _, f := range feeds {
			esp := tr.begin(root, "fuzz.Executor.Run", "cold")
			cex.Run(f)
			tr.end(esp)
		}
		wopts := c.rep.Exec
		wopts.Persist, wopts.Fabric = true, fuzz.NewSnapFabric()
		wex := fuzz.NewExecutor(c.tg.img, nil, wopts)
		for _, f := range feeds {
			wex.Run(f) // fill the snapshot fabric
		}
		for i, f := range feeds {
			if i == apiSample {
				break
			}
			for _, ev := range wex.RunTraced(f).Trace.Path() {
				if ev.Kind == vm.EvAPICall {
					apiCalls++
				}
			}
			traced++
		}
		ws = append(ws, warmed{wex, feeds})
	}
	for len(tr.perOp("fuzz.Executor.Run", "warm")) < samplesFor(0.99) {
		for _, w := range ws {
			for _, f := range w.feeds {
				esp := tr.begin(root, "fuzz.Executor.Run", "warm")
				start := time.Now()
				res := w.ex.Run(f)
				warmNS += float64(time.Since(start).Nanoseconds())
				tr.end(esp)
				warmInstrs += float64(res.Steps - res.SkippedSteps)
			}
		}
	}
	warmRuns := tr.perOp("fuzz.Executor.Run", "warm")
	r.dist("fuzz.exec_us.p50", warmRuns, 0.5, 1e3, "us")
	r.dist("fuzz.exec_us.p99", warmRuns, 0.99, 1e3, "us")
	r.dist("fuzz.cold_exec_us", tr.perOp("fuzz.Executor.Run", "cold"), 0.5, 1e3, "us")
	r.put("vm.ns_per_instr", warmNS/warmInstrs, "ns")
	r.put("kernel.api_calls_per_exec", apiCalls/traced, "calls")

	// The campaign runner's own cost per item, with a no-op exec.
	runner := campaign.NewRunner(campaign.Options{Workers: fuzzWorkers, MaxExecs: runnerItems}, nopFrontier{}, func(int, struct{}) {})
	sp = tr.begin(root, "campaign.Runner.Run", "")
	runner.Run(ctx)
	tr.end(sp)
	r.put("campaign.item_ns", tr.perOp("campaign.Runner.Run", "")[0]/float64(runner.Summary().Retired), "ns")
	return nil
}

// fleetLayers measures the manager: the fleet stream until Sync and
// Report have enough samples for their p99, then one State.Flush.
func fleetLayers(ctx context.Context, o *options, tr *tracer, root int64, r *layerReport) error {
	f, err := setupFleet(ctx, o.work, o.seed, 0)
	if err != nil {
		return err
	}
	sp := tr.begin(root, "bench.fleet", "")
	var offered, admitted int
	for len(tr.perOp("manager.Client.Sync", "")) < samplesFor(0.99) || len(tr.perOp("manager.Client.Report", "")) < samplesFor(0.99) {
		fs := f.replay(ctx, time.Now().Add(500*time.Millisecond), tr, sp, r.t)
		offered += fs.offered
		admitted += fs.admitted
	}
	fsp := tr.begin(sp, "manager.State.Flush", "")
	err = f.state.Flush()
	tr.end(fsp)
	tr.end(sp)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var all []float64
	for _, k := range []string{"Sync", "Report", "Poll", "Status"} {
		xs := tr.perOp("manager.Client."+k, "")
		all = append(all, xs...)
		name := "manager." + strings.ToLower(k) + "_ms"
		r.dist(name+".p50", xs, 0.5, 1e6, "ms")
		if k == "Sync" || k == "Report" {
			r.dist(name+".p99", xs, 0.99, 1e6, "ms")
		}
	}
	r.dist("manager.rpc_ms.p99", all, 0.99, 1e6, "ms")
	r.put("manager.flush_ms", tr.perOp("manager.State.Flush", "")[0]/1e6, "ms")
	r.put("manager.corpus_admit_ratio", float64(admitted)/float64(offered), "ratio")
	return nil
}

// nopFrontier hands out empty items forever; the runner's exec budget
// ends the campaign.
type nopFrontier struct{}

func (nopFrontier) Next(int) (struct{}, campaign.Verdict) { return struct{}{}, campaign.Dispatch }
func (nopFrontier) Retire(int, struct{})                  {}
func (nopFrontier) Idle(int) bool                         { return true }

// memCounts are cumulative heap allocation counters.
type memCounts struct{ mallocs, bytes uint64 }

func readMem() memCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounts{m.Mallocs, m.TotalAlloc}
}

// cpuSeconds are cumulative CPU-time estimates from runtime/metrics.
type cpuSeconds struct{ gc, total float64 }

func readCPU() cpuSeconds {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSeconds{s[0].Value.Float64(), s[1].Value.Float64()}
}
