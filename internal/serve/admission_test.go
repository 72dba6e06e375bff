package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAdmissionVerdict(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name     string
		pending  int64
		replicas int
		maxQueue int
		svc      time.Duration
		deadline time.Duration
		want     string
	}{
		{"idle", 1, 2, 4, ms, 100 * ms, ""},
		{"all replicas busy, no queue", 2, 2, 4, ms, 100 * ms, ""},
		{"queue within bounds", 5, 2, 4, 0, 100 * ms, ""},
		{"queue overflow", 7, 2, 4, 0, 100 * ms, "queue_full"},
		{"deep overflow", 100, 2, 4, 0, 100 * ms, "queue_full"},
		{"deadline unreachable", 5, 2, 4, 100 * ms, 100 * ms, "deadline"},
		{"slow service but short queue", 3, 2, 4, 100 * ms, 100 * ms, ""},
		{"no service estimate disables deadline", 5, 2, 8, 0, ms, ""},
		{"single replica deadline", 3, 1, 8, 10 * ms, 15 * ms, "deadline"},
		{"no fixed bound admits a deep fast queue", 100, 2, 0, 0, 100 * ms, ""},
		{"no fixed bound still sheds past the deadline", 100, 2, 0, ms, 10 * ms, "deadline"},
	}
	for _, c := range cases {
		if got := admissionVerdict(c.pending, c.replicas, c.maxQueue, c.svc, c.deadline); got != c.want {
			t.Errorf("%s: admissionVerdict(%d, %d, %d, %v, %v) = %q, want %q",
				c.name, c.pending, c.replicas, c.maxQueue, c.svc, c.deadline, got, c.want)
		}
	}
}

func TestObserveServiceTimeEWMA(t *testing.T) {
	s := &Server{}
	if s.serviceTime() != 0 {
		t.Fatalf("initial service time = %v, want 0", s.serviceTime())
	}
	s.observeServiceTime(100*time.Millisecond, 1)
	if got := s.serviceTime(); got != 100*time.Millisecond {
		t.Fatalf("first observation = %v, want 100ms (seeded, not blended with zero)", got)
	}
	s.observeServiceTime(0, 1)
	if got := s.serviceTime(); got < 79*time.Millisecond || got > 81*time.Millisecond {
		t.Fatalf("after 0 observation = %v, want ~80ms (alpha %.1f)", got, ewmaAlpha)
	}
}

// TestObserveServiceTimeBatchOccupancy: the EWMA must track the
// *marginal* per-request cost. A 64-rider batch whose forward takes
// 64ms contributes 1ms per request — the same estimate as a 1ms
// single-request pass — not 64ms, which would make admissionVerdict's
// drain-time projection shed traffic a batching pool absorbs trivially.
func TestObserveServiceTimeBatchOccupancy(t *testing.T) {
	single := &Server{}
	single.observeServiceTime(time.Millisecond, 1)

	batched := &Server{}
	batched.observeServiceTime(64*time.Millisecond, 64)

	if s, b := single.serviceTime(), batched.serviceTime(); s != b {
		t.Fatalf("marginal cost diverges: occupancy 1 -> %v, occupancy 64 -> %v", s, b)
	}
	// The projection consequence, end to end: with a 64ms-per-batch
	// estimate wrongly priced as per-request, a modest queue sheds on
	// "deadline"; priced marginally it admits.
	wrong := &Server{}
	wrong.observeServiceTime(64*time.Millisecond, 1)
	if got := admissionVerdict(6, 2, 8, wrong.serviceTime(), 100*time.Millisecond); got != "deadline" {
		t.Fatalf("sanity: naive pricing should shed, got %q", got)
	}
	if got := admissionVerdict(6, 2, 8, batched.serviceTime(), 100*time.Millisecond); got != "" {
		t.Fatalf("marginal pricing should admit, got %q", got)
	}
	// Degenerate occupancy never divides by zero or inflates the EWMA.
	z := &Server{}
	z.observeServiceTime(5*time.Millisecond, 0)
	if got := z.serviceTime(); got != 5*time.Millisecond {
		t.Fatalf("occupancy 0 clamps to 1: got %v, want 5ms", got)
	}
}

// TestDefaultAdmissionShedsNoLightLoad: a server built with New(st, ds)
// must absorb light concurrent load. Its queue has no fixed bound, so
// a burst of 8 clients sheds nothing, and even a deep queue is admitted
// while its projected drain time stays inside the request deadline.
func TestDefaultAdmissionShedsNoLightLoad(t *testing.T) {
	st, ds, _ := testState(t)
	s := New(st, ds)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if failures := concurrentPredicts(srv.URL, 8, 20); len(failures) > 0 {
		t.Fatalf("default admission failed %d of 8 clients:\n%s", len(failures), strings.Join(failures, "\n"))
	}

	s.pending.Add(64)
	defer s.pending.Add(-64)
	if w := postJSON(t, s.Handler(), "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}); w.Code != http.StatusOK {
		t.Fatalf("predict behind a 64-deep fast queue = %d: %s", w.Code, w.Body)
	}
}

// TestShedFailsFast is the saturation acceptance check: a request that
// the admission gate rejects must fail in well under 5ms — before the
// body is even decoded — with a jittered Retry-After, and the gate must
// reopen as soon as the pressure is gone.
func TestShedFailsFast(t *testing.T) {
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{MaxQueue: 4})
	h := s.Handler()
	req := PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}

	// Simulate a saturated handler: pending far beyond replicas+queue.
	s.pending.Add(20)
	start := time.Now()
	w := postJSON(t, h, "/predict", req)
	elapsed := time.Since(start)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed predict = %d, want 503: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "overloaded (queue_full)") {
		t.Fatalf("shed body = %q", w.Body.String())
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Fatalf("Retry-After = %q, want 1-3", w.Header().Get("Retry-After"))
	}
	if elapsed >= 5*time.Millisecond {
		t.Fatalf("shed took %v, want <5ms", elapsed)
	}

	s.pending.Add(-20)
	if w := postJSON(t, h, "/predict", req); w.Code != http.StatusOK {
		t.Fatalf("predict after pressure released = %d: %s", w.Code, w.Body)
	}
}

// TestRetryAfterJitterIsSeeded: the jitter sequence is a pure function
// of ShedSeed, so drills replay bit-identically.
func TestRetryAfterJitterIsSeeded(t *testing.T) {
	st, ds, _ := testState(t)
	seq := func() []int {
		s := NewWithOptions(st, ds, Options{ShedSeed: 42})
		var out []int
		for i := 0; i < 8; i++ {
			out = append(out, s.retryAfter())
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter diverged at %d: %v vs %v", i, a, b)
		}
		if a[i] < 1 || a[i] > 3 {
			t.Fatalf("jitter %d out of range 1-3", a[i])
		}
	}
}

// BenchmarkShedUnderSaturation measures the fail-fast path end to end
// through the handler chain — the cost of telling a client to go away
// while the pool is drowning.
func BenchmarkShedUnderSaturation(b *testing.B) {
	st, ds, _ := testState(b)
	s := NewWithOptions(st, ds, Options{MaxQueue: 4})
	h := s.Handler()
	s.pending.Add(100)
	body, _ := marshalPredict(PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := newPredictRequest(body)
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.code != http.StatusServiceUnavailable {
			b.Fatalf("code = %d", w.code)
		}
	}
}

// BenchmarkPredictUnloaded is the contrast benchmark: the same request
// when the pool is free.
func BenchmarkPredictUnloaded(b *testing.B) {
	st, ds, _ := testState(b)
	s := NewWithOptions(st, ds, Options{})
	h := s.Handler()
	body, _ := marshalPredict(PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := newPredictRequest(body)
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("code = %d", w.code)
		}
	}
}

// --- benchmark plumbing ---

func marshalPredict(r PredictRequest) ([]byte, error) {
	return json.Marshal(r)
}

func newPredictRequest(body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	return req
}

// discardResponseWriter is a minimal allocation-light recorder.
type discardResponseWriter struct {
	h    http.Header
	code int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}
func (w *discardResponseWriter) WriteHeader(code int) { w.code = code }
