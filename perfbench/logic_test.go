package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{10000, 99.9, 9990}, // 10 samples above the 99.9th
		{1000, 99, 990},     // 99.5 would leave 5
		{999, 95, 950},      // 99 would leave 9
		{100, 90, 90},
		{20, 50, 10},
	} {
		got, ok := tail(ramp(tc.n))
		if !ok || got.Pct != tc.wantPct || got.Value != tc.wantVal || got.Samples != tc.n {
			t.Errorf("n=%d: tail = %+v, %v; want p%v = %v over %d samples", tc.n, got, ok, tc.wantPct, tc.wantVal, tc.n)
		}
		if b := beyond(tc.n, got.Pct); b < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, b, got.Pct)
		}
	}
	if got, ok := tail(ramp(15)); ok {
		t.Errorf("15 samples: tail = %+v, want none (the median has 7 beyond it)", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := ramp(100)
	if p := percentile(s, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if d := summarize(s); d.N != 100 || d.P50 != 50 || d.P95 != 95 || d.P99 != 99 {
		t.Errorf("summarize(1..100) = %+v", d)
	}
	if p := percentile(s, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median and mean of nothing should be NaN")
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
}

func TestColumnMediansVoteOutOneRunsHiccups(t *testing.T) {
	// Three runs of the same blocks; block 1 is heavy in every run, and
	// one run stalls on blocks 0 and 2. The stalls go, the heavy block
	// stays, and the extra block of the longer run is dropped.
	runs := [][]float64{
		{1, 5, 1},
		{9, 5, 9, 1},
		{1, 6, 2},
	}
	got := columnMedians(runs)
	want := []float64{1, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("columnMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("columnMedians = %v, want %v", got, want)
		}
	}
	if columnMedians(nil) != nil {
		t.Error("columnMedians of no runs should be nil")
	}
}

func TestSelfTimesSubtractsMergedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := NewTracer("run-1")
	root := tr.Begin("ledger")
	child := tr.Begin("layer")
	if got := tr.End(42); got.Parent != root || got.ID != child || got.Ops != 42 {
		t.Fatalf("child span = %+v", got)
	}
	if got := tr.End(1); got.Parent != 0 || got.Run != "run-1" || got.Dur() < 0 {
		t.Fatalf("root span = %+v", got)
	}
	if len(tr.Spans()) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.Spans()))
	}
	costs := layerCosts(tr.Spans())
	if costs["layer"].Ops != 42 || costs["ledger"].SelfNs < 0 {
		t.Fatalf("layer costs = %+v", costs)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	late := outcome{due: 10 * ms, sent: 15 * ms, done: 17 * ms}
	if l, ok := late.latency(); !ok || l != 7*ms {
		t.Errorf("late message: latency %v, want 7ms from its due time", l)
	}
	if late.lateness() != 5*ms {
		t.Errorf("late message: lateness %v, want 5ms", late.lateness())
	}
	onTime := outcome{due: 10 * ms, sent: 10 * ms, done: 11 * ms}
	if l, _ := onTime.latency(); l != ms || onTime.lateness() != 0 {
		t.Errorf("on-time message: latency %v, lateness %v", l, onTime.lateness())
	}
	if _, ok := (outcome{due: ms, sent: ms}).latency(); ok {
		t.Error("a message settled later (GetSources) has no latency of its own")
	}
}

func TestLatenessGrowing(t *testing.T) {
	ms := time.Millisecond
	steady := make([]outcome, 400)
	growing := make([]outcome, 400)
	for i := range steady {
		due := time.Duration(i) * ms
		steady[i] = outcome{due: due, sent: due + time.Duration(i%7)*100*time.Microsecond}
		growing[i] = outcome{due: due, sent: due + time.Duration(i)*20*time.Microsecond} // backlog builds to 8ms
	}
	if latenessGrowing(steady) {
		t.Error("a jittery but steady generator reported as falling behind")
	}
	if !latenessGrowing(growing) {
		t.Error("a generator falling steadily behind was not caught")
	}
	if latenessGrowing(growing[:3]) {
		t.Error("too few outcomes to judge should not count as growing")
	}
}

func TestArrivalsOpenAndClosedLoop(t *testing.T) {
	a := arrivals{rng: rand.New(rand.NewPCG(1, 2)), rate: 1000}
	var last time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		d := a.next(0)
		if d < last {
			t.Fatal("due times must not go backwards")
		}
		last = d
	}
	if mean := last.Seconds() / n; math.Abs(mean-1e-3) > 2e-5 {
		t.Errorf("mean gap %v s, want 1ms at 1000/s", mean)
	}
	closed := arrivals{}
	if d := closed.next(42 * time.Millisecond); d != 42*time.Millisecond {
		t.Errorf("closed loop: due %v, want the elapsed time", d)
	}
}

func TestMaxRateRule(t *testing.T) {
	ok := func(rate float64) rateStep { return rateStep{Rate: rate, P99Ms: 1} }
	for _, tc := range []struct {
		name  string
		steps []rateStep
		want  float64
	}{
		{"all pass", []rateStep{ok(100), ok(200), ok(400)}, 400},
		{"p99 over the limit", []rateStep{ok(100), {Rate: 200, P99Ms: 5.01}}, 100},
		{"p99 at the limit passes", []rateStep{ok(100), {Rate: 200, P99Ms: p99LimitMs}}, 200},
		{"backlog growing", []rateStep{ok(100), {Rate: 200, P99Ms: 1, LateGrowing: true}}, 100},
		{"a request failed", []rateStep{ok(100), {Rate: 200, P99Ms: 1, ErrorRatio: 1e-4}}, 100},
		{"capture dropped frames", []rateStep{ok(100), {Rate: 200, P99Ms: 1, LossRatio: 1e-4}}, 100},
		{"pass above a failure is noise", []rateStep{ok(100), {Rate: 200, P99Ms: 9}, ok(400)}, 100},
		{"lowest rate fails", []rateStep{{Rate: 100, P99Ms: 9}, ok(200)}, 0},
	} {
		if got := maxRate(tc.steps); got != tc.want {
			t.Errorf("%s: max rate %v, want %v", tc.name, got, tc.want)
		}
	}
}
