package serve

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// ewmaAlpha weights the service-time estimate toward recent forward
// passes; at 0.2 a regime change (bigger batches, slower snapshot)
// settles in a handful of requests.
const ewmaAlpha = 0.2

// shedReason decides whether a newly arrived prediction should be shed,
// given that pending requests (including this one) are already inside
// the handler. Empty string admits.
func (s *Server) shedReason(pending int64) string {
	return admissionVerdict(pending, s.opts.Replicas, s.opts.MaxQueue,
		s.serviceTime(), s.opts.RequestTimeout)
}

// admissionVerdict is the pure shed policy: requests beyond the
// replica pool queue; with maxQueue > 0 a queue past it sheds
// ("queue_full"), and any queue whose projected drain time already
// exceeds the request deadline sheds now ("deadline") — waiting would
// only turn a fast 503 into a slow one. maxQueue <= 0 leaves the
// deadline shed as the only bound.
func admissionVerdict(pending int64, replicas, maxQueue int, svc, deadline time.Duration) string {
	queued := int(pending) - replicas
	if queued <= 0 {
		return ""
	}
	if maxQueue > 0 && queued > maxQueue {
		return "queue_full"
	}
	if svc > 0 && replicas > 0 && time.Duration(queued)*svc/time.Duration(replicas) > deadline {
		return "deadline"
	}
	return ""
}

// shed answers a shed request: 503 with a jittered Retry-After so a
// synchronized herd of clients does not return as one wave.
func (s *Server) shed(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	s.metrics.shed(reason)
	http.Error(w, "overloaded ("+reason+"): retry later", http.StatusServiceUnavailable)
}

// retryAfter picks the shed backoff in seconds: 1–3, from the seeded
// jitter source.
func (s *Server) retryAfter() int {
	s.shedMu.Lock()
	defer s.shedMu.Unlock()
	if s.shedRng == nil {
		return 1
	}
	return 1 + s.shedRng.Intn(3)
}

// observeServiceTime folds one forward-pass duration into the EWMA via
// lock-free CAS on the float bits. occupancy is how many requests the
// pass served (1 on the inline path, the batch's rider count on the
// coalesced path): the EWMA tracks the *marginal* replica cost per
// request, because that is what admissionVerdict's drain-time
// projection multiplies by the queue depth — pricing a 64-rider batch
// as 64 single-request passes would shed traffic the pool can easily
// absorb.
func (s *Server) observeServiceTime(d time.Duration, occupancy int) {
	if occupancy < 1 {
		occupancy = 1
	}
	for {
		old := s.svcEWMA.Load()
		next := d.Seconds() / float64(occupancy)
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*next
		}
		if s.svcEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// serviceTime is the current forward-pass estimate (0 before the first
// observation, which disables the deadline shed).
func (s *Server) serviceTime() time.Duration {
	return time.Duration(math.Float64frombits(s.svcEWMA.Load()) * float64(time.Second))
}
