package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// sweepBench is the symbolic-sweep workload.
type sweepBench struct {
	tgs  []target
	last sweepStats
}

func setupSweep(ctx context.Context, o *options, rep int) (bench, error) {
	tgs, err := sweepTargets()
	if err != nil {
		return nil, err
	}
	// Sessions are deterministic, so the seed only orders them.
	rand.New(rand.NewSource(o.seed)).Shuffle(len(tgs), func(i, j int) { tgs[i], tgs[j] = tgs[j], tgs[i] })
	return &sweepBench{tgs: tgs}, nil
}

func (b *sweepBench) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64, t *tally, heap *heapSampler) (measurement, error) {
	var m measurement
	start := time.Now()
	for len(m.iterMS) == 0 || time.Since(start) < d {
		sp := tr.begin(parent, "bench.sweep", "")
		t0, cpu0 := time.Now(), cpuTime()
		st, err := sweep(ctx, b.tgs, tr, sp, t)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		tr.end(sp)
		if err != nil {
			return m, err
		}
		b.last = st
		m.iterMS = append(m.iterMS, ms(cpu))
		m.wallMS = append(m.wallMS, ms(wall))
		m.items += float64(st.items)
		m.itemsCPU += cpu
		m.itemsWall += wall
		m.blocks = append(m.blocks, float64(st.blocks))
		m.heapMB = append(m.heapMB, heap.lap())
	}
	m.notes = append(m.notes,
		fmt.Sprintf("sweep_s %.6f s wall, %.6f s CPU (medians of %d sweeps); %.3f sessions+replays per wall second", median(m.wallMS)/1e3, median(m.iterMS)/1e3, len(m.iterMS), m.items/m.itemsWall.Seconds()),
		fmt.Sprintf("sweep %d sessions+replays, %d paths, %d solver queries, %d off-leader PCs", b.last.items, b.last.paths, b.last.queries, b.last.offPCs),
		fmt.Sprintf("sweep %d bug traces trace.Replay cannot replay (storage-miniport entry points unsupported)", b.last.unsupported))
	return m, nil
}

// verify checks the solver replay set built from the last sweep's bugs.
func (b *sweepBench) verify(ctx context.Context, tr *tracer, parent int64, t *tally) {
	qs := replaySet(b.last.bugs)
	feasible, unknown := checkReplaySet(qs, tr, parent, t)
	fmt.Printf("replay set %d queries, %d known feasible, %d not answered Sat, %d unforked other sides unchecked (prefix pinned by a concretization)\n", len(qs), feasible, unknown, unchecked(qs))
}

func (b *sweepBench) close() error { return nil }

// fuzzBench is the fuzz-steady workload.
type fuzzBench struct {
	tgs   []target
	seed  int64
	round int64
}

func setupFuzz(ctx context.Context, o *options, rep int) (bench, error) {
	tgs, err := fuzzTargets()
	if err != nil {
		return nil, err
	}
	return &fuzzBench{tgs: tgs, seed: o.seed}, nil
}

func (b *fuzzBench) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64, t *tally, heap *heapSampler) (measurement, error) {
	var m measurement
	var offPCs []float64
	start := time.Now()
	for len(m.iterMS) == 0 || time.Since(start) < d {
		sp := tr.begin(parent, "bench.fuzz-round", "")
		// Campaign seeds derive from the run seed: round r runs driver i
		// with seed*1000 + r*len(drivers) + i.
		st, _, err := fuzzRound(ctx, b.tgs, b.seed*1000+b.round*int64(len(b.tgs)), tr, sp, t)
		tr.end(sp)
		if err != nil {
			return m, err
		}
		b.round++
		m.iterMS = append(m.iterMS, ms(st.cpu))
		m.wallMS = append(m.wallMS, ms(st.wall))
		m.items += float64(st.execs)
		m.itemsCPU += st.cpu
		m.itemsWall += st.wall
		m.blocks = append(m.blocks, float64(st.leaders))
		m.heapMB = append(m.heapMB, heap.lap())
		offPCs = append(offPCs, float64(st.offPCs))
	}
	m.notes = append(m.notes,
		fmt.Sprintf("execs_per_s %.3f execs per wall second, %.3f per CPU second; round %.6g ms wall (%d rounds of %d execs on %d drivers)", m.items/m.itemsWall.Seconds(), m.itemsPerSec(), median(m.wallMS), len(m.iterMS), fuzzBudget, len(b.tgs)),
		fmt.Sprintf("fuzz off-leader covered PCs %.0f per round (median)", median(offPCs)))
	return m, nil
}

func (b *fuzzBench) verify(ctx context.Context, tr *tracer, parent int64, t *tally) {}

func (b *fuzzBench) close() error { return nil }

// fleetBench is the fleet-sync workload.
type fleetBench struct{ f *fleet }

func setupFleetBench(ctx context.Context, o *options, rep int) (bench, error) {
	f, err := setupFleet(ctx, o.work, o.seed, rep)
	if err != nil {
		return nil, err
	}
	return &fleetBench{f}, nil
}

func (b *fleetBench) measure(ctx context.Context, d time.Duration, tr *tracer, parent int64, t *tally, heap *heapSampler) (measurement, error) {
	var m measurement
	b.f.resetLatencies()
	// A heap lap every fleetLap, so that the peak heap is a median too.
	stop, laps := make(chan struct{}), make(chan []float64)
	go func() {
		var mb []float64
		tick := time.NewTicker(fleetLap)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mb = append(mb, heap.lap())
			case <-stop:
				laps <- append(mb, heap.lap())
				return
			}
		}
	}()
	st := b.f.replay(ctx, time.Now().Add(d), tr, parent, t)
	close(stop)
	m.heapMB = <-laps
	m.iterMS = b.f.latencies()
	m.items, m.itemsCPU, m.itemsWall = float64(st.rpcs), st.cpu, st.wall
	m.blocks = []float64{float64(st.leaders)}
	p99, ok := percentile(m.iterMS, 0.99)
	tail := "n/a (too few samples)"
	if ok {
		tail = fmt.Sprintf("%.6f ms", p99)
	}
	m.notes = append(m.notes,
		fmt.Sprintf("rpc_per_s %.3f RPCs per wall second, %.3f per CPU second, rpc_p50_ms %.6f ms, rpc_p99_ms %s (%d RPCs, %d latencies sampled)", m.items/m.itemsWall.Seconds(), m.itemsPerSec(), median(m.iterMS), tail, st.rpcs, len(m.iterMS)),
		fmt.Sprintf("%d leases completed; corpus entries offered %d, admitted %d; pool %d entries, %d crashes, %d blocks from %d execs in %.3f s", st.leases, st.offered, st.admitted, len(b.f.pool.entries), len(b.f.pool.crashes), len(b.f.pool.blocks), b.f.pool.execs, b.f.pool.elapsed.Seconds()))
	return m, nil
}

func (b *fleetBench) verify(ctx context.Context, tr *tracer, parent int64, t *tally) {}

func (b *fleetBench) close() error { return b.f.close() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
