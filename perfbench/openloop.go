package main

import (
	"math/rand/v2"
	"time"
)

// An open loop sends each message when it is due, whatever happened to
// the messages before it; a slow server therefore builds a backlog
// instead of receiving less load. The benchmark runs nproc streams, one
// TCP connection each, and each stream is an open loop at rate/nproc:
// a message whose stream is still waiting for an earlier answer is sent
// late, never skipped, and the wait is charged to it.

// arrivals is one stream's open-loop schedule: Poisson arrivals at
// rate messages per second, or, at rate 0, a closed loop in which each
// message is due the moment the stream gets to it.
type arrivals struct {
	rng  *rand.Rand
	rate float64
	due  time.Duration // due time of the latest message
}

// next returns the next message's due time; elapsed is the time since
// the phase started, which is the due time in a closed loop.
func (a *arrivals) next(elapsed time.Duration) time.Duration {
	if a.rate <= 0 {
		a.due = elapsed
	} else {
		a.due += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	}
	return a.due
}

// outcome is one message's timing against its due time.
type outcome struct {
	due  time.Duration // when the schedule wanted it sent
	sent time.Duration // when the stream actually sent it
	// done is when its verified answer arrived; 0 for a message whose
	// answer is settled by a later message (GetSources).
	done time.Duration
}

// lateness is how far behind its schedule the generator sent the
// message.
func (o outcome) lateness() time.Duration {
	if o.sent < o.due {
		return 0
	}
	return o.sent - o.due
}

// latency is the wait the message's user saw: from when it was due —
// not when it was sent — to its answer. Timing from the due time counts
// the delay a stall imposes on every message queued behind it.
func (o outcome) latency() (time.Duration, bool) {
	if o.done == 0 {
		return 0, false
	}
	return o.done - o.due, true
}

// lateGrowthLimit is how much the generator's mean lateness may rise
// from the first to the last quarter of a phase before the backlog
// counts as growing: the offered rate is then above what the server
// sustains, whatever the latency percentiles say.
const lateGrowthLimit = time.Millisecond

// latenessGrowing reports whether the generator fell steadily behind
// its schedule: the mean lateness of the last quarter of the outcomes
// (in due order) exceeds that of the first quarter by lateGrowthLimit.
func latenessGrowing(os []outcome) bool {
	q := len(os) / 4
	if q == 0 {
		return false
	}
	mean := func(part []outcome) time.Duration {
		var sum time.Duration
		for _, o := range part {
			sum += o.lateness()
		}
		return sum / time.Duration(len(part))
	}
	return mean(os[len(os)-q:])-mean(os[:q]) > lateGrowthLimit
}
