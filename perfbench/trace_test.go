package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint children", []span{sp(10, 20), sp(50, 70)}, 70},
		{"nested child inside another", []span{sp(10, 60), sp(20, 30)}, 50},
		{"overlapping children", []span{sp(10, 40), sp(30, 60)}, 50},
		{"children sticking out of the parent", []span{sp(-20, 10), sp(90, 130)}, 80},
		{"child outside the parent", []span{sp(100, 150), sp(-50, 0)}, 100},
		{"child covering the parent", []span{sp(-1, 101), sp(40, 50)}, 0},
		{"unsorted, touching children", []span{sp(50, 60), sp(40, 50), sp(10, 40)}, 50},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerRecordsAndLinks(t *testing.T) {
	var off *tracer
	if id := off.record("x", 0, 1, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer recorded span %d", id)
	}
	tr := newTracer()
	t0 := tr.t0
	root := tr.record("root", 0, 7, t0, t0.Add(100))
	child := tr.record("child", 0, 0, t0.Add(10), t0.Add(30))
	tr.link(child, root, 7)
	c := tr.get(child)
	if c.Parent != root || c.Req != 7 || c.dur() != 20 {
		t.Fatalf("linked child = %+v", c)
	}
	if got := selfTime(tr.get(root), []span{c}); got != 80 {
		t.Fatalf("root self time = %d, want 80", got)
	}
}
