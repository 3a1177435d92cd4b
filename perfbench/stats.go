package main

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted[T cmp.Ordered](xs []T) []T {
	s := append([]T(nil), xs...)
	slices.Sort(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four parts,
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false when fewer than minBeyond samples lie above it; such a percentile
// must not be reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minBeyond
}

// nearestRank is the 1-based rank of the p-quantile among n samples. The
// epsilon keeps p*n from rounding up past an exact integer.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// samplesFor is the sample count percentile needs before the p-quantile
// may be reported.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-nearestRank(p, n) >= minBeyond {
			return n
		}
	}
}

// tally counts checked operations and the ones whose output was wrong.
// failed ÷ attempted is the benchmark's fail ratio.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// check records one checked operation; note describes a failure.
func (t *tally) check(ok bool, note func() string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, note())
		}
	}
	return ok
}

func (t *tally) failRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// reservoir keeps a uniform random sample of at most cap(xs) values from
// a stream of unknown length (Vitter's algorithm R), so recording a long
// run's latencies takes memory fixed before the run starts.
type reservoir struct {
	xs  []float64
	n   int
	rng *rand.Rand
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
	} else if j := r.rng.Intn(r.n); j < len(r.xs) {
		r.xs[j] = x
	}
}

// reset forgets every value, keeping the storage.
func (r *reservoir) reset() { r.xs, r.n = r.xs[:0], 0 }

// cpuTime is the process's CPU time so far, user and system, over all
// threads. Timings on a shared host use it instead of wall time: the
// kernel leaves out of it the time the hypervisor gave the CPU to other
// guests, which on a busy host moved a sweep's wall time by 2x within
// minutes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
