package main

// p99LimitMs is the serving latency limit: a rate passes only if the
// p99 from due time to verified answer stays at or under it.
const p99LimitMs = 5.0

// rateStep is one offered rate of the max-rate sweep and what it did.
type rateStep struct {
	Rate        float64 `json:"rate"`
	P99Ms       float64 `json:"p99_ms"`
	LateGrowing bool    `json:"late_growing"`
	ErrorRatio  float64 `json:"error_ratio"`
	LossRatio   float64 `json:"capture_loss_ratio"`
}

// pass applies the four limits: p99 within p99LimitMs, the generator
// not falling further behind, no request lost or wrong, and no frame
// dropped by the self-capture.
func (s rateStep) pass() bool {
	return s.P99Ms <= p99LimitMs && !s.LateGrowing && s.ErrorRatio == 0 && s.LossRatio == 0
}

// maxRate is the highest rate of an ascending sweep that passes with
// every lower rate passing too: a pass above a failure is noise, not
// capacity. It returns 0 when the lowest rate already fails.
func maxRate(steps []rateStep) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.pass() {
			break
		}
		best = s.Rate
	}
	return best
}
