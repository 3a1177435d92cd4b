// Command perfbench is the repository's benchmark. Each run measures one
// workload of DDT from the outside, checks every operation's output, and
// prints its metrics, the last line being one JSON object:
//
//	go build -o perfbench.bin . && ./perfbench.bin --workload symbolic-sweep --seed 1 --seconds 10 --trace 0
//
// (run.py in this directory builds and runs it from the repository root.)
//
// Workloads, each a closed loop driven from this process with at most two
// busy goroutines:
//
//   - symbolic-sweep: a sequential DDT session on both variants of every
//     corpus driver, each followed by a replay of every bug's trace. The
//     solver and expr layers do most of the work.
//   - fuzz-steady: a persistent-mode fuzz campaign at two workers with a
//     fixed exec budget on one driver per device class. Concrete spans, COW
//     memory, kernel dispatch and the snapshot fabric do the work; the
//     solver does none.
//   - fleet-sync: two worker clients replay a seeded RPC stream through
//     manager.Client against an in-process manager serving over loopback
//     from an on-disk state directory. The VM and solver do no work.
//
// With --trace 0 the run reports the end-to-end metrics, named alike for
// every workload:
//
//	setup_s         median CPU time of a set-up over several in the run
//	iter_p50_ms     median CPU time of a full sweep or of a round of one
//	                campaign per fuzz driver, or median RPC wall latency
//	items_per_s     sessions+replays, campaign execs, or RPCs per CPU
//	                second
//	blocks_covered  covered PCs that are static block leaders, summed over
//	                an iteration's drivers
//	peak_heap_mb    peak heap during an iteration (median over iterations;
//	                fleet-sync's is over each second)
//
// Times are process CPU time (see cpuTime) so that steal on a shared host
// does not show as a slowdown; the wall-time figures are printed too.
//
// With --trace 1 the run records spans around the calls into each module
// and reports the per-layer metrics (see layers.go) from them, plus the
// tracing overhead on this workload. The spans go to the work directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// options are the run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

// measurement is what one timed phase of a workload observed.
type measurement struct {
	// iterMS is the process CPU time of each sweep or fuzz round, or the
	// wall latency of each sampled RPC; wallMS is the wall time of each
	// sweep or round.
	iterMS, wallMS []float64
	items          float64       // work items completed
	itemsCPU       time.Duration // process CPU time the items took
	itemsWall      time.Duration // wall time the items took
	blocks         []float64     // covered static leaders, per iteration
	heapMB         []float64     // peak heap per iteration (per second for fleet-sync)
	notes          []string      // the workload's own figures, for readers
}

// itemsPerSec is items per second of process CPU time.
func (m *measurement) itemsPerSec() float64 { return m.items / m.itemsCPU.Seconds() }

// bench is a workload after set-up.
type bench interface {
	// measure runs the closed loop for at least d and at least one
	// iteration, taking a heap lap per iteration.
	measure(ctx context.Context, d time.Duration, tr *tracer, parent int64, t *tally, heap *heapSampler) (measurement, error)
	// verify runs checks that need the whole run's results.
	verify(ctx context.Context, tr *tracer, parent int64, t *tally)
	close() error
}

// workload builds a bench. rep numbers the set-ups within one run.
type workload struct {
	name      string
	setupReps int
	setup     func(ctx context.Context, o *options, rep int) (bench, error)
}

var workloads = []workload{
	{"symbolic-sweep", 51, setupSweep},
	{"fuzz-steady", 51, setupFuzz},
	{"fleet-sync", 5, setupFleetBench},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: symbolic-sweep, fuzz-steady or fleet-sync")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for state directories and span files")
	flag.Parse()
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	line, _ := json.Marshal(env)
	fmt.Printf("env %s\n", line)

	ctx := context.Background()
	t := &tally{}
	var ms map[string]metric
	var err error
	if o.trace {
		ms, err = tracedRun(ctx, w, &o, env, t)
	} else {
		ms, err = untracedRun(ctx, w, &o, t)
	}
	if err != nil {
		return err
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	fmt.Printf("checks %d attempted, %d failed, fail_ratio %.6g\n", t.attempted, t.failed, t.failRatio())
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupAll sets the workload up reps times, keeps the last bench, and
// returns it with the process CPU time of every set-up.
func setupAll(ctx context.Context, w *workload, o *options, reps int) (bench, []float64, error) {
	var secs []float64
	var b bench
	for rep := 0; rep < reps; rep++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := cpuTime()
		var err error
		b, err = w.setup(ctx, o, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, (cpuTime() - start).Seconds())
	}
	return b, secs, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w *workload, o *options, t *tally) (map[string]metric, error) {
	b, setups, err := setupAll(ctx, w, o, w.setupReps)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler()
	m, err := b.measure(ctx, time.Duration(o.seconds)*time.Second, nil, 0, t, heap)
	heap.close()
	if err != nil {
		b.close()
		return nil, err
	}
	b.verify(ctx, nil, 0, t)
	if err := b.close(); err != nil {
		return nil, err
	}
	for _, n := range m.notes {
		fmt.Println(n)
	}
	q1, q2, q3 := quartiles(m.iterMS)
	fmt.Printf("samples %d iterations (ms: q1 %.6g, median %.6g, q3 %.6g)\n", len(m.iterMS), q1, q2, q3)
	q1, q2, q3 = quartiles(setups)
	fmt.Printf("samples %d set-ups (CPU s: q1 %.6g, median %.6g, q3 %.6g)\n", len(setups), q1, q2, q3)
	return map[string]metric{
		"setup_s":        {q2, "s"},
		"iter_p50_ms":    {median(m.iterMS), "ms"},
		"items_per_s":    {m.itemsPerSec(), "1/s"},
		"blocks_covered": {median(m.blocks), "blocks"},
		"peak_heap_mb":   {median(m.heapMB), "MB"},
	}, nil
}

// tracedRun measures the per-layer metrics and the tracing overhead on
// the workload: one untraced and one traced timed phase of a quarter of
// the run length each.
func tracedRun(ctx context.Context, w *workload, o *options, env map[string]any, t *tally) (map[string]metric, error) {
	tr := newTracer()
	ms, err := layerSuite(ctx, o, tr, t)
	if err != nil {
		return nil, err
	}
	b, _, err := setupAll(ctx, w, o, 1)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second / 4
	runtime.GC()
	plain, err := b.measure(ctx, d, nil, 0, t, nil)
	if err != nil {
		b.close()
		return nil, err
	}
	runtime.GC()
	root := tr.begin(0, "bench."+w.name, "")
	traced, err := b.measure(ctx, d, tr, root, t, nil)
	tr.end(root)
	if err != nil {
		b.close()
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	ms["bench.trace_overhead.iter_p50_ms"] = metric{median(traced.iterMS) - median(plain.iterMS), "ms"}
	ms["bench.trace_overhead.items_per_s"] = metric{traced.itemsPerSec() - plain.itemsPerSec(), "1/s"}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path, env); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return ms, nil
}

// heapSampler tracks the peak of heap object bytes (live and not yet
// collected), sampled every 2 ms. A nil *heapSampler records nothing.
type heapSampler struct {
	peak       atomic.Uint64
	stop, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// lap returns the peak in MB since the previous lap and starts a new one.
func (h *heapSampler) lap() float64 {
	if h == nil {
		return 0
	}
	h.sample()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
