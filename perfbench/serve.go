package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/serve"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// traffic is one workload's serving mix and its measurement schedule.
type traffic struct {
	rows     int           // user-item pairs per request
	batchMax int           // serve.Options.BatchMax (0 = coalescing off)
	publish  time.Duration // publish interval (0 = read-only)
	refRate  float64       // fixed reference rate for p50/p99/ok ratio
	refDur   time.Duration
	warmDur  time.Duration
	ladder   ladder
}

// grid is the workload's rate ladder, based at the reference rate.
func (t traffic) grid() ladder {
	l := t.ladder
	l.base = t.refRate
	return l
}

func (t traffic) describe() string {
	s := fmt.Sprintf("%d pairs/request, batch-max %d, reference %.0f req/s for %.1fs, ladder %s",
		t.rows, t.batchMax, t.refRate, t.refDur.Seconds(), t.grid())
	if t.publish > 0 {
		s += fmt.Sprintf(", publish every %s", t.publish)
	}
	return s
}

// scaled stretches every phase duration by f (the --seconds setting
// relative to the benchmark's configured run length).
func (t traffic) scaled(f float64) traffic {
	sc := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	t.refDur, t.warmDur, t.ladder.rung = sc(t.refDur), sc(t.warmDur), sc(t.ladder.rung)
	return t
}

const poolSize = 2048

// makePool draws the workload's distinct requests: a domain by the
// dataset's per-domain sample share, one user from that domain and
// rows candidate items from it. Each request's expected scores are the
// offline State.Predict of the served state, computed one batch per
// domain.
func makePool(ds *data.Dataset, st *core.State, rows int, rng *rand.Rand) ([]*request, error) {
	weights := make([]float64, ds.NumDomains())
	var total float64
	for d, dom := range ds.Domains {
		weights[d] = float64(dom.Samples())
		total += weights[d]
	}
	type draft struct {
		domain int
		ins    []data.Interaction
	}
	drafts := make([]draft, poolSize)
	byDomain := map[int][]int{}
	for i := range drafts {
		u := rng.Float64() * total
		d := 0
		for ; d < len(weights)-1 && u >= weights[d]; d++ {
			u -= weights[d]
		}
		train := ds.Domains[d].Train
		user := train[rng.Intn(len(train))].User
		ins := make([]data.Interaction, rows)
		for j := range ins {
			ins[j] = data.Interaction{User: user, Item: train[rng.Intn(len(train))].Item}
		}
		drafts[i] = draft{d, ins}
		byDomain[d] = append(byDomain[d], i)
	}
	pool := make([]*request, poolSize)
	for i, dr := range drafts {
		users := make([]int, rows)
		items := make([]int, rows)
		for j, in := range dr.ins {
			users[j], items[j] = in.User, in.Item
		}
		body, err := json.Marshal(serve.PredictRequest{Domain: dr.domain, Users: users, Items: items})
		if err != nil {
			return nil, err
		}
		pool[i] = &request{body: body}
	}
	for d, members := range byDomain {
		var all []data.Interaction
		for _, i := range members {
			all = append(all, drafts[i].ins...)
		}
		probs := st.Predict(ds.MakeBatch(d, all))
		for n, i := range members {
			pool[i].expected = probs[n*rows : (n+1)*rows]
		}
	}
	return pool, nil
}

// newServer builds the server the way mamdr-serve does by default:
// a GOMAXPROCS replica pool from a replica factory, MaxQueue and the
// request deadline at their defaults (4×replicas, 5s), the shed jitter
// seeded, metrics on, and coalescing only when batchMax > 0 (with the
// default 500µs linger).
func newServer(st *core.State, ds *data.Dataset, mcfg models.Config, batchMax int, seed int64, reg *telemetry.Registry, tracer *trace.Tracer) *serve.Server {
	return serve.NewWithOptions(st, ds, serve.Options{
		ReplicaFactory: func() models.Model { return models.MustNew("mlp", mcfg) },
		ShedSeed:       seed,
		Metrics:        reg,
		Tracer:         tracer,
		BatchMax:       batchMax,
		BatchLinger:    500 * time.Microsecond,
	})
}

// serveResult is what a workload's serve part yields: the pooled
// reference-rate phases and the ladder's interpolated maximum rate.
type serveResult struct {
	ref    *phaseResult
	maxRPS float64
}

// refChunks is how many pieces the reference phase is run in: the
// first before the ladder, one after every second rung, the rest after
// the ladder, so that a slow spell of the shared machine a few seconds
// long reaches only part of the reference measurement.
const refChunks = 4

// runServe drives warm-up, the reference phase (also the ladder's
// lowest rung) and the rest of the rate ladder, printing every phase.
// Any wrong 2xx answer is an error.
func runServe(b *bench, h http.Handler, pool []*request, t traffic, pub *publisher) (*serveResult, error) {
	rng := rand.New(rand.NewSource(b.seed*7919 + 17))
	run := func(spec phaseSpec) (*phaseResult, error) {
		r, err := runPhase(h, pool, spec, rng, pub)
		if err != nil {
			return nil, err
		}
		b.logf("%s", r)
		if r.wrong > 0 {
			return nil, fmt.Errorf("phase %s: %d answers differ from the offline State.Predict scores", spec.name, r.wrong)
		}
		return r, nil
	}
	if _, err := run(phaseSpec{name: "warmup", rate: t.refRate, dur: t.warmDur}); err != nil {
		return nil, err
	}
	var refs []*phaseResult
	runRef := func() error {
		r, err := run(phaseSpec{name: fmt.Sprintf("reference%d", len(refs)), rate: t.refRate, dur: t.refDur / refChunks})
		refs = append(refs, r)
		return err
	}
	if err := runRef(); err != nil {
		return nil, err
	}
	rungs := 0
	rung := func(spec phaseSpec) (*phaseResult, error) {
		r, err := run(spec)
		if err != nil {
			return nil, err
		}
		if rungs++; rungs%2 == 0 && len(refs) < refChunks {
			err = runRef()
		}
		return r, err
	}
	best, rate, err := t.grid().sweep(refs[0], rung)
	for err == nil && len(refs) < refChunks {
		err = runRef()
	}
	if err != nil {
		return nil, err
	}
	res := &serveResult{ref: mergePhases("reference", refs), maxRPS: rate}
	b.logf("pooled %s", res.ref)
	if best == nil {
		// Not even the reference rate passed: report what it achieved
		// so the figure stays a measurement, and say so.
		b.logf("the reference rate missed the limits; serve_max_rps reports its successes per second")
		res.maxRPS = res.ref.achieved
	} else {
		b.logf("serve_max_rps %.1f req/s (interpolated between the last passing and first failing grid points)", res.maxRPS)
	}
	return res, nil
}

// liveHeapMB is the heap in use after a forced GC; callers keep the
// trained state and the server referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle empties sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// registryValue sums a counter family's series whose label matches
// (key, value); an empty key sums every series.
func registryValue(reg *telemetry.Registry, family, key, value string) float64 {
	var v float64
	for _, f := range reg.Snapshot().Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if key == "" || hasLabel(s.Labels, key, value) {
				v += s.Value
			}
		}
	}
	return v
}

// registryHistMean is a histogram family's observation mean.
func registryHistMean(reg *telemetry.Registry, family string) float64 {
	var sum float64
	var n int64
	for _, f := range reg.Snapshot().Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			sum += s.Sum
			n += s.Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func hasLabel(ls []telemetry.Label, key, value string) bool {
	for _, l := range ls {
		if l.Name == key && l.Value == value {
			return true
		}
	}
	return false
}
