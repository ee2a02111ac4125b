package server

// Cost-priced admission control. The bounded queue alone admits work
// blind to its size: ten queued n=30 solves and ten n=8 solves look
// identical to a channel, yet differ by four orders of magnitude in
// memory pinned and work done. Admission prices each job before it is
// enqueued and keeps the sum of in-flight (queued + running) cost
// under a budget, so one whale cannot shut the door on a stream of
// cheap jobs — the whale is admitted, fills most of the budget, and
// small jobs keep flowing through the remainder. The queue-depth bound
// stays as a second, count-based backstop.

// jobCost prices one solve, for admission control here and as the cost
// a dispatched job carries to internal/cluster's per-worker budgets:
// depth × 2^qubits. 2^n is both the state-vector memory the job pins
// and the per-layer kernel work; depth multiplies the layers per
// objective call. The unit is arbitrary (amplitude-layers, roughly) —
// only ratios matter.
func jobCost(qubits, depth int) int64 {
	if qubits < 1 {
		qubits = 1
	}
	if depth < 1 {
		depth = 1
	}
	return int64(depth) << uint(qubits)
}

// admission tracks the in-flight cost against the budget and a retire
// rate for Retry-After estimates. It has no lock of its own: every
// method must be called with Server.mu held (admission decisions are
// already serialized under it in submit).
type admission struct {
	budget   int64
	inflight int64
	// rate is an exponentially-weighted moving average of retired cost
	// per second, the denominator of the estimated wait.
	rate float64
}

// admit reserves cost against the budget, reporting false on refusal.
// A job costlier than the whole budget is still admitted when nothing
// is in flight — an empty server refusing all work it could ever run
// would be a livelock, and the budget's job is to bound concurrent
// cost, not instance size (MaxNodes/MaxDepth do that).
func (a *admission) admit(cost int64) bool {
	if a.inflight > 0 && a.inflight+cost > a.budget {
		return false
	}
	a.inflight += cost
	return true
}

// unadmit returns a reservation that never became a job (queue full).
func (a *admission) unadmit(cost int64) { a.inflight -= cost }

// release retires a finished job's cost. seconds is the job's wall
// time (≤ 0 — never ran — leaves the rate estimate alone).
func (a *admission) release(cost int64, seconds float64) {
	a.inflight -= cost
	if seconds <= 0 {
		return
	}
	const alpha = 0.3
	obs := float64(cost) / seconds
	if a.rate == 0 {
		a.rate = obs
		return
	}
	a.rate = alpha*obs + (1-alpha)*a.rate
}

// coldStartRetryAfter is the Retry-After (seconds) handed out while
// the retire-rate estimate is still empty: the budget is exhausted but
// no job has ever retired, so there is no denominator for a real
// estimate. Returning the 1-second floor there tells every rejected
// client to hammer a server that has demonstrably never freed
// capacity; a fixed mid-range default keeps the first wave of retries
// spread out until real retirements calibrate the estimator.
const coldStartRetryAfter = 5

// retryAfter estimates, in whole seconds, how long until enough
// in-flight cost retires for a job of the given cost to fit — the
// Retry-After a 429 carries. Clamped to [1, 60]: sub-second estimates
// round up, and beyond a minute the estimate is noise. With no
// observed retire rate yet (cold start) it returns the bounded
// coldStartRetryAfter default instead of a degenerate estimate.
func (a *admission) retryAfter(cost int64) int {
	excess := a.inflight + cost - a.budget
	if excess <= 0 {
		return 1
	}
	if a.rate <= 0 {
		return coldStartRetryAfter
	}
	secs := int(float64(excess)/a.rate + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
