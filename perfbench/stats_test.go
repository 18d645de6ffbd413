package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    int
		ok   bool
		name string
	}{
		{9, 0, false, "too few for a median"},
		{19, 0, false, "median leaves 9 beyond"},
		{20, 5000, true, "median leaves 10 beyond"},
		{39, 5000, true, "p75 would leave 9 beyond"},
		{40, 7500, true, "p75 leaves 10 beyond"},
		{999, 9500, true, "p99 would leave 9 beyond"},
		{1000, 9900, true, "p99 leaves 10 beyond"},
		{9999, 9900, true, "p99.9 would leave 9 beyond"},
		{10000, 9990, true, "p99.9 leaves 10 beyond"},
		{100000, 9999, true, "p99.99 is the top of the ladder"},
		{10000000, 9999, true, "never beyond the ladder"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("%s: tailPercentile(%d) = %d, %v; want %d, %v", c.name, c.n, p, ok, c.p, c.ok)
		}
		if ok && c.n-rank(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %d leaves %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	v, p, ok := tail(xs)
	if !ok || p != 9900 || v != 990 {
		t.Fatalf("tail(1..1000) = %v, p%d, %v; want 990 at p9900", v, p, ok)
	}
	if _, _, ok := tail(xs[:15]); ok {
		t.Fatal("tail of 15 samples should not exist")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{1, 4, 16}); g < 3.9999 || g > 4.0001 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
}

func TestKindsP25IsGeomeanOfLowerQuartiles(t *testing.T) {
	var k kinds
	for _, x := range []float64{12, 10, 11, 13} {
		k.add("fast", x)
		k.add("slow", 10*x)
	}
	if got := k.p25(); got < 31.62 || got > 31.63 {
		t.Fatalf("p25 = %v, want sqrt(10·100) ≈ 31.623", got)
	}
}
