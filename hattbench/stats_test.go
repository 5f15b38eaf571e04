package main

import "testing"

func TestTailPicksHighestPercentileUpToP99WithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{5, 100, 5},
		{11, 100 * 1 / 11.0, 1},
		{100, 90, 90},
		{500, 98, 490},
		{999, 100 * 989 / 999.0, 989},
		{1000, 99, 990},
		{10000, 99, 9900},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so tail must sort
		}
		v, pct := tail(xs)
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, v, pct, tc.want, tc.pct)
		}
	}
}

func TestWindowedMedianIgnoresAStalledSlice(t *testing.T) {
	// 1000 ops over 10 s at 1 ms, except that every op in the third of
	// five slices took 50 ms.
	var ts []timed
	for i := 0; i < 1000; i++ {
		at := float64(i) / 100
		v := 1.0
		if at >= 4 && at < 6 {
			v = 50
		}
		ts = append(ts, timed{at: at, ms: v})
	}
	ws := split(ts, 10)
	if len(ws) != windows {
		t.Fatalf("%d slices, want %d", len(ws), windows)
	}
	if got := p50(ts, 10); got != 1 {
		t.Errorf("p50 %v, want 1", got)
	}
	// Too few samples for five slices of minWindow: fewer, larger slices.
	if got := len(split(ts[:450], 10)); got != 2 {
		t.Errorf("%d slices for 450 samples, want 2", got)
	}
	// An op finishing past the deadline falls in the last slice.
	if ws := split([]timed{{at: 0, ms: 1}, {at: 10.5, ms: 2}}, 10); len(ws) != 1 || len(ws[0]) != 2 {
		t.Errorf("late op not kept: %v", ws)
	}
}
