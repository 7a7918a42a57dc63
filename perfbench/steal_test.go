package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestStealShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	pts := []stealPoint{
		{at(0), 0, 0},
		{at(250), 50, 0},
		{at(500), 100, 10},
		{at(750), 150, 10},
	}
	cases := []struct {
		from, to int
		want     float64
	}{
		{0, 250, 0},
		{250, 500, 0.2},
		{0, 750, 10.0 / 150},
		// Bounds between samples widen to the enclosing samples.
		{300, 400, 0.2},
		{100, 600, 10.0 / 150},
		// Past the last sample: nothing to measure.
		{800, 900, 0},
	}
	for _, c := range cases {
		if got := stealShare(pts, at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("share [%d, %d] ms = %g, want %g", c.from, c.to, got, c.want)
		}
	}
	if got := stealShare(pts[:1], at(0), at(250)); got != 0 {
		t.Errorf("share from one sample = %g, want 0", got)
	}
}

func TestTimeWindows(t *testing.T) {
	s := func(ms int) sample { return sample{kind: opAdmit, done: time.Duration(ms) * time.Millisecond} }
	samples := []sample{s(100), s(900), s(1000), s(1999), s(2500), s(3100)}
	got := timeWindows(samples, time.Second, 3050*time.Millisecond)
	want := [][]sample{{s(100), s(900)}, {s(1000), s(1999)}, {s(2500)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timeWindows = %v, want %v", got, want)
	}
	if got := timeWindows(samples, time.Second, 900*time.Millisecond); len(got) != 0 {
		t.Errorf("a run shorter than one window gave %d windows", len(got))
	}
}

func TestPickClean(t *testing.T) {
	shares := []float64{0.01, 0.2, stealLimit, 0.04, 0}
	idx, clean := pickClean(shares, 3)
	if !clean || !reflect.DeepEqual(idx, []int{0, 2, 4}) {
		t.Errorf("pickClean = %v %v, want [0 2 4] true", idx, clean)
	}
	idx, clean = pickClean(shares, 4)
	if clean || !reflect.DeepEqual(idx, []int{0, 2, 3, 4}) {
		t.Errorf("too few clean: pickClean = %v %v, want the 4 least stolen [0 2 3 4] and false", idx, clean)
	}
	idx, clean = pickClean(shares[:2], 3)
	if clean || !reflect.DeepEqual(idx, []int{0, 1}) {
		t.Errorf("fewer shares than min: pickClean = %v %v, want [0 1] false", idx, clean)
	}
	if got := pick([]float64{5, 6, 7}, []int{0, 2}); !reflect.DeepEqual(got, []float64{5, 7}) {
		t.Errorf("pick = %v", got)
	}
}
