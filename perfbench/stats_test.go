package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 2, 3}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{7.5, 1.25, 3, 100, 2, 9}, [3]float64{1.8125, 5.25, 31.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 samples beyond it")
	}
	if v, ok := percentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples reported with only 9 samples beyond it")
	}
	for p, want := range map[float64]int{0.99: 1000, 0.9: 100, 0.5: 20} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(%v) = %d, want %d", p, got, want)
		}
		if _, ok := percentile(seq(samplesFor(p)), p); !ok {
			t.Errorf("percentile(%v) refused %d samples", p, samplesFor(p))
		}
	}
}

func TestTallyFailRatio(t *testing.T) {
	var tl tally
	tl.check(true, nil)
	tl.check(true, nil)
	tl.check(false, func() string { return "wrong" })
	tl.check(true, nil)
	if tl.attempted != 4 || tl.failed != 1 || tl.failRatio() != 0.25 {
		t.Errorf("tally = %d attempted, %d failed, ratio %v; want 4, 1, 0.25", tl.attempted, tl.failed, tl.failRatio())
	}
	if len(tl.notes) != 1 || tl.notes[0] != "wrong" {
		t.Errorf("notes = %q", tl.notes)
	}
}

func TestTracerPerOp(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x", ""); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	nilTracer.end(0)
	tr := newTracer()
	root := tr.begin(0, "root", "")
	a := tr.begin(root, "op", "a")
	tr.endN(a, 4)
	b := tr.begin(root, "op", "b")
	tr.end(b)
	tr.end(root)
	if got := len(tr.perOp("op", "*")); got != 2 {
		t.Errorf("perOp(op, *) has %d spans, want 2", got)
	}
	if got := len(tr.perOp("op", "a")); got != 1 {
		t.Errorf("perOp(op, a) has %d spans, want 1", got)
	}
	if tr.spans[a-1].Parent != root || tr.spans[a-1].N != 4 {
		t.Errorf("span a = %+v", tr.spans[a-1])
	}
}
