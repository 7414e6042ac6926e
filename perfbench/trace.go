package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of the traced run. Spans cover a batch of
// calls into one layer, not a single call: a clock read costs as much as
// the sub-microsecond layers, so a per-call span would measure the clock.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Ops is the number of calls the span covers (frames, messages,
	// records), so a span yields a per-call cost.
	Ops int64 `json:"ops"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. Not safe for
// concurrent use: the ledger records from one goroutine.
type Tracer struct {
	run   string
	epoch time.Time
	spans []Span
	open  []int // stack of open span indexes
}

// NewTracer starts a tracer whose spans carry run as their run id.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now()}
}

// Begin opens a span as a child of the innermost open span and returns
// its id.
func (t *Tracer) Begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans)
}

// End closes the innermost open span, recording ops calls under it.
func (t *Tracer) End(ops int64) Span {
	n := len(t.open)
	i := t.open[n-1]
	t.open = t.open[:n-1]
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].Ops = ops
	return t.spans[i]
}

// Spans returns every span recorded so far.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval its direct children cover. Overlapping children are
// merged first, and a child reaching past its parent counts only inside
// the parent's interval, so self time is never negative.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		curStart, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - curStart
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}
