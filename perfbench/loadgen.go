package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop generator: requests arrive on a seeded Poisson schedule
// regardless of how fast the server answers (independent users), and
// each request's latency is measured from the moment it was due, so a
// stall also charges the requests queued behind it.

// On the 2-vCPU virtual machine this benchmark was sized on, the
// machine deschedules the process for 2-14 ms several times a second
// (about 2% of wall time on an otherwise idle process), so a p99 there
// measures the hypervisor. The latency limit and the generator check
// therefore apply to the 95th percentile; p90 and p99 are reported.
const (
	// latencyLimitMS is the p95 limit a ladder rung must meet.
	latencyLimitMS = 10.0
	// failLimit is the largest failed share a passing rung may have.
	failLimit = 0.01
	// failLatencyMS is the latency charged to a failed request: the
	// server's default request deadline, so a failure always misses
	// the latency limit.
	failLatencyMS = 5000.0
	// lateLimitMS marks a phase invalid: the generator fell behind its
	// own schedule by more than this at the 95th percentile.
	lateLimitMS = latencyLimitMS / 2
	// postPublishWindow is how long after a publish a request counts
	// toward the post-publish tail.
	postPublishWindow = 100 * time.Millisecond
)

// request is one pre-encoded /predict call. expected holds the offline
// State.Predict scores of the served state; a 2xx answer must equal
// them bit for bit after the JSON round trip.
type request struct {
	body     []byte
	expected []float64
	okBody   []byte // a response body already verified for this request
}

type phaseSpec struct {
	name string
	rate float64 // offered requests per second
	dur  time.Duration
}

type outcome struct {
	idx       int
	due, done time.Duration // since phase start
	late      time.Duration
	status    int
	body      []byte
}

type phaseResult struct {
	spec                      phaseSpec
	sent, ok, failed, shed    int
	statuses                  map[int]int
	reasons                   map[string]int
	latMS                     []float64 // from due time; failures charged failLatencyMS
	lateMS                    []float64 // generator lateness per request
	dueAt                     []time.Duration
	p50, p90, p95, p99        float64
	lateP50, lateP95, lateMax float64
	backlog                   int64
	achieved                  float64 // successes per second of schedule
	wrong                     int
	mallocs                   uint64
	gcs                       uint32
	gcPause                   time.Duration
	publishes                 []publishRecord
}

func (r *phaseResult) failRatio() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.sent)
}

// errors counts the failures that are not admission sheds: answers
// that no correct server gives under load.
func (r *phaseResult) errors() int { return r.failed - r.shed }

// valid reports whether the generator kept to its schedule.
func (r *phaseResult) valid() bool { return r.lateP95 <= lateLimitMS }

// backlogLimit is the most work that may be outstanding when the last
// request becomes due: what the server drains in 10 ms, plus 16.
func (r *phaseResult) backlogLimit() float64 { return r.spec.rate*latencyLimitMS/1e3 + 16 }

// score is how far the phase is from the ladder's limits: the largest
// of p95 over the latency limit, the failed share over its limit,
// generator lateness over its limit and the backlog over its limit.
// A wrong answer makes it infinite.
func (r *phaseResult) score() float64 {
	if r.wrong > 0 {
		return math.Inf(1)
	}
	return max(r.p95/latencyLimitMS, r.failRatio()/failLimit, r.lateP95/lateLimitMS, float64(r.backlog)/r.backlogLimit())
}

// passes is the ladder condition: p95 within the limit, at most 1%
// failed, no growing backlog, a valid schedule, and correct answers.
func (r *phaseResult) passes() bool { return r.score() <= 1 }

// overloaded reports a rung plainly past capacity: twice the allowed
// failures, or a median already at half the latency limit.
func (r *phaseResult) overloaded() bool {
	return r.failRatio() > 2*failLimit || r.p50 > latencyLimitMS/2
}

func (r *phaseResult) String() string {
	reasons := make([]string, 0, len(r.reasons))
	for k, v := range r.reasons {
		reasons = append(reasons, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(reasons)
	flag := "valid"
	if !r.valid() {
		flag = "INVALID(generator behind)"
	}
	return fmt.Sprintf("phase %-10s rate=%7.0f/s dur=%4.1fs sent=%d ok=%d failed=%d [%s] p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms achieved=%.0f/s late p50/p95/max=%.3f/%.3f/%.3fms backlog=%d wrong=%d gc=%d/%s score=%.3f %s",
		r.spec.name, r.spec.rate, r.spec.dur.Seconds(), r.sent, r.ok, r.failed, strings.Join(reasons, " "),
		r.p50, r.p90, r.p95, r.p99, r.achieved, r.lateP50, r.lateP95, r.lateMax, r.backlog, r.wrong, r.gcs, r.gcPause.Round(time.Microsecond), r.score(), flag)
}

// publisher republishes the served state at a fixed interval while a
// phase runs, starting at a fixed offset into the phase so that
// every phase sees a publish: the write side of a read/write workload.
type publisher struct {
	first   time.Duration // offset of the first publish in every phase
	every   time.Duration
	publish func() error
}

type publishRecord struct {
	at  time.Duration // since phase start
	dur time.Duration
}

var shedRe = regexp.MustCompile(`overloaded \(([a-z_]+)\)`)

// runPhase drives one open-loop phase against h and verifies every
// 2xx answer after the schedule ends.
func runPhase(h http.Handler, pool []*request, spec phaseSpec, rng *rand.Rand, pub *publisher) (*phaseResult, error) {
	var due []time.Duration
	var idx []int
	for t := 0.0; ; {
		t += rng.ExpFloat64() / spec.rate
		d := time.Duration(t * float64(time.Second))
		if d >= spec.dur {
			break
		}
		due = append(due, d)
		idx = append(idx, rng.Intn(len(pool)))
	}
	out := make([]outcome, len(due))
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		ms0, ms1    runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	start := time.Now().Add(time.Millisecond)

	var pubs []publishRecord
	pubDone := make(chan struct{})
	stopPub := make(chan struct{})
	var pubErr error
	if pub != nil {
		go func() {
			defer close(pubDone)
			for k := 0; ; k++ {
				at := pub.first + time.Duration(k)*pub.every
				if at >= spec.dur {
					return
				}
				select {
				case <-stopPub:
					return
				case <-time.After(time.Until(start.Add(at))):
				}
				t0 := time.Now()
				if err := pub.publish(); err != nil {
					pubErr = err
					return
				}
				pubs = append(pubs, publishRecord{at: t0.Sub(start), dur: time.Since(t0)})
			}
		}()
	} else {
		close(pubDone)
	}

	// The dispatcher sleeps in nanosleep: the Go timer rounds short
	// sleeps up to the next millisecond, which would make the generator
	// itself the source of tail latency.
	for i := 0; i < len(due); {
		now := time.Since(start)
		if now < due[i] {
			nanosleep(due[i] - now)
			continue
		}
		for ; i < len(due) && due[i] <= now; i++ {
			out[i] = outcome{idx: idx[i], due: due[i], late: now - due[i]}
			wg.Add(1)
			outstanding.Add(1)
			go func(o *outcome) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(pool[o.idx].body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				o.done = time.Since(start)
				o.status = rec.Code
				o.body = rec.Body.Bytes()
				outstanding.Add(-1)
			}(&out[i])
		}
	}
	backlog := outstanding.Load()
	close(stopPub)
	wg.Wait()
	<-pubDone
	runtime.ReadMemStats(&ms1)
	if pubErr != nil {
		return nil, fmt.Errorf("publish during %s: %w", spec.name, pubErr)
	}

	r := &phaseResult{
		spec: spec, sent: len(out), statuses: map[int]int{}, reasons: map[string]int{},
		backlog: backlog, mallocs: ms1.Mallocs - ms0.Mallocs, publishes: pubs,
		gcs: ms1.NumGC - ms0.NumGC, gcPause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}
	for i := range out {
		o := &out[i]
		r.lateMS = append(r.lateMS, ms(o.late))
		r.dueAt = append(r.dueAt, o.due)
		r.statuses[o.status]++
		if o.status/100 == 2 {
			r.ok++
			r.latMS = append(r.latMS, ms(o.done-o.due))
			if !verify(pool[o.idx], o.body) {
				r.wrong++
			}
			continue
		}
		r.failed++
		r.latMS = append(r.latMS, math.Max(failLatencyMS, ms(o.done-o.due)))
		reason := fmt.Sprintf("status_%d", o.status)
		if m := shedRe.FindSubmatch(o.body); m != nil && o.status == http.StatusServiceUnavailable {
			reason = "shed_" + string(m[1])
			r.shed++
		}
		r.reasons[reason]++
	}
	r.summarize()
	return r, nil
}

// summarize computes the phase's quantiles and achieved rate from its
// per-request records.
func (r *phaseResult) summarize() {
	if len(r.latMS) > 0 {
		r.p50, r.p90 = quantile(r.latMS, 0.5), quantile(r.latMS, 0.9)
		r.p95, r.p99 = quantile(r.latMS, 0.95), quantile(r.latMS, 0.99)
		r.lateP50, r.lateP95 = quantile(r.lateMS, 0.5), quantile(r.lateMS, 0.95)
		r.lateMax = quantile(r.lateMS, 1)
	}
	r.achieved = float64(r.ok) / r.spec.dur.Seconds()
}

// mergePhases pools phases run at one rate into a single result, as if
// they were one phase of their total length.
func mergePhases(name string, rs []*phaseResult) *phaseResult {
	m := &phaseResult{spec: phaseSpec{name: name, rate: rs[0].spec.rate}, statuses: map[int]int{}, reasons: map[string]int{}}
	for _, r := range rs {
		m.spec.dur += r.spec.dur
		m.sent, m.ok, m.failed, m.shed, m.wrong = m.sent+r.sent, m.ok+r.ok, m.failed+r.failed, m.shed+r.shed, m.wrong+r.wrong
		m.mallocs, m.gcs, m.gcPause = m.mallocs+r.mallocs, m.gcs+r.gcs, m.gcPause+r.gcPause
		m.backlog = max(m.backlog, r.backlog)
		m.latMS = append(m.latMS, r.latMS...)
		m.lateMS = append(m.lateMS, r.lateMS...)
		for k, v := range r.statuses {
			m.statuses[k] += v
		}
		for k, v := range r.reasons {
			m.reasons[k] += v
		}
	}
	m.summarize()
	return m
}

// postPublishP99 is the p99 latency of requests due within
// postPublishWindow after any publish of the phase.
func (r *phaseResult) postPublishP99() (float64, int) {
	var lat []float64
	for i, d := range r.dueAt {
		for _, p := range r.publishes {
			if d >= p.at && d < p.at+postPublishWindow {
				lat = append(lat, r.latMS[i])
				break
			}
		}
	}
	if len(lat) == 0 {
		return 0, 0
	}
	return quantile(lat, 0.99), len(lat)
}

// verify checks one 2xx body against the request's offline scores.
func verify(q *request, body []byte) bool {
	if q.okBody != nil && bytes.Equal(q.okBody, body) {
		return true
	}
	var resp struct {
		Probabilities []float64 `json:"probabilities"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if !equalBits(resp.Probabilities, q.expected) {
		return false
	}
	q.okBody = append([]byte(nil), body...)
	return true
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ladder is a fixed geometric grid of offered rates, base·step^i, whose
// base is the workload's reference rate.
type ladder struct {
	base   float64 // set from the reference rate, see traffic.grid
	step   float64
	points int
	coarse int
	rung   time.Duration
}

func (l ladder) rate(i int) float64 { return l.base * math.Pow(l.step, float64(i)) }

func (l ladder) String() string {
	return fmt.Sprintf("%.0f·%.4f^i req/s, i<%d (%.0f..%.0f), coarse every %d, %.1fs per rung",
		l.base, l.step, l.points, l.rate(0), l.rate(l.points-1), l.coarse, l.rung.Seconds())
}

// sweep finds the rate at which the ladder's limits are crossed, given
// the result at grid point 0, which the caller has already run (the
// reference phase). It climbs every coarse-th grid point until one
// fails, then bisects the grid between the last pass and that failure,
// and interpolates between the two adjacent grid points it ends on: the
// rate where the phase score (log) crosses 1, linear in log rate. A
// fixed grid alone would make the result jump by whole grid steps. A
// rung that fails narrowly is run once more before it counts as failed,
// so one stall of the shared machine does not end the climb; a rung
// plainly past capacity is not. It returns the highest passing rung
// (nil when none passes) and the interpolated rate (0 then).
func (l ladder) sweep(first *phaseResult, run func(spec phaseSpec) (*phaseResult, error)) (*phaseResult, float64, error) {
	var best *phaseResult
	scores := map[int]float64{} // lowest score seen at each grid point
	try := func(i int) (bool, error) {
		for attempt := 0; attempt < 2; attempt++ {
			r := first
			if i > 0 || attempt > 0 {
				var err error
				r, err = run(phaseSpec{name: fmt.Sprintf("rung%02d", i), rate: l.rate(i), dur: l.rung})
				if err != nil {
					return false, err
				}
			}
			if s, seen := scores[i]; !seen || r.score() < s {
				scores[i] = r.score()
			}
			if r.passes() {
				best = r
				return true, nil
			}
			if r.overloaded() {
				break
			}
		}
		return false, nil
	}
	if ok, err := try(0); !ok || err != nil {
		return nil, 0, err
	}
	lo, hi := 0, l.points
	for i := l.coarse; i < l.points; i += l.coarse {
		ok, err := try(i)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			hi = i
			break
		}
		lo = i
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if hi >= l.points {
		return best, l.rate(lo), nil
	}
	sLo, sHi := scores[lo], scores[hi]
	f := 0.0
	if sHi > sLo && sLo > 0 {
		f = math.Min(1, math.Log(1/sLo)/math.Log(sHi/sLo))
	}
	return best, l.rate(lo) * math.Pow(l.step, f), nil
}

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks the clock
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop sends n requests one after another (warm-up and
// correctness smoke before any timing) and fails on the first wrong or
// non-2xx answer.
func closedLoop(h http.Handler, pool []*request, n int) error {
	for i := 0; i < n; i++ {
		q := pool[i%len(pool)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(q.body)))
		body := rec.Body.Bytes()
		if rec.Code/100 != 2 {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, rec.Code, strings.TrimSpace(string(body)))
		}
		if !verify(q, body) {
			return fmt.Errorf("warm-up request %d: scores differ from the offline State.Predict", i)
		}
	}
	return nil
}
