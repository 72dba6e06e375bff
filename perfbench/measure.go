package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/serve"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// served is what a workload's serve part runs against; with t.publish
// set, the state is republished during every phase.
type served struct {
	ds    *data.Dataset
	state *core.State
	mcfg  models.Config
	t     traffic
}

// build makes the request pool, then the server, and warms it with a
// closed-loop pass that also checks the first answers. poolTime is the
// part spent on the benchmark's own request pool.
func (sv served) build(b *bench, reg *telemetry.Registry, tracer *trace.Tracer, pool []*request) (*serve.Server, []*request, time.Duration, error) {
	var poolTime time.Duration
	if pool == nil {
		t0 := time.Now()
		var err error
		if pool, err = makePool(sv.ds, sv.state, sv.t.rows, rand.New(rand.NewSource(b.seed+101))); err != nil {
			return nil, nil, 0, err
		}
		poolTime = time.Since(t0)
	}
	kernels.SetThreads(1) // mamdr-serve's -kernel-threads default, kept while serving
	srv := newServer(sv.state, sv.ds, sv.mcfg, sv.t.batchMax, b.seed, reg, tracer)
	if err := closedLoop(srv.Handler(), pool, 64); err != nil {
		srv.Close()
		return nil, nil, 0, err
	}
	return srv, pool, poolTime, nil
}

func (sv served) publisher(srv *serve.Server) *publisher {
	if sv.t.publish <= 0 {
		return nil
	}
	return &publisher{first: 500 * time.Millisecond, every: sv.t.publish, publish: func() error {
		_, _, err := srv.Publish(sv.state, 0, 0, nil)
		return err
	}}
}

// measureServe runs the workload's serve part. Untraced (tb == nil) it
// records the end-to-end serving metrics and the live heap; traced it
// records the serve-layer metrics.
func measureServe(b *bench, sv served, tb *traceBench) error {
	if tb != nil {
		return traceServe(b, sv, tb)
	}
	reg := telemetry.New()
	srv, pool, _, err := sv.build(b, reg, nil, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	res, err := runServe(b, srv.Handler(), pool, sv.t, nil)
	if err != nil {
		return err
	}
	ref := res.ref
	b.attempted += ref.sent
	b.failed += ref.errors()
	b.set("serve_max_rps", res.maxRPS)
	b.set("serve_p50_ms", ref.p50)
	b.set("serve_ok_ratio", float64(ref.ok)/float64(ref.sent))
	b.logf("shed over the whole serve part: queue_full=%.0f deadline=%.0f",
		registryValue(reg, "mamdr_serve_shed_total", "reason", "queue_full"),
		registryValue(reg, "mamdr_serve_shed_total", "reason", "deadline"))
	pool, res = nil, nil
	b.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(srv)
	runtime.KeepAlive(sv.state)
	return nil
}

// traceServe measures the serve layers: an untraced reference phase
// (the overhead baseline and allocations per request), then the whole
// serve part again on a traced server behind a benchmark span, then
// timed parameter loads, forward passes and GEMMs at the model's
// shapes.
func traceServe(b *bench, sv served, tb *traceBench) error {
	reg0 := telemetry.New()
	srv0, pool, _, err := sv.build(b, reg0, nil, nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed*7919 + 17))
	var ref0 *phaseResult
	for _, spec := range []phaseSpec{{"warmup", sv.t.refRate, sv.t.warmDur}, {"reference", sv.t.refRate, sv.t.refDur}} {
		if ref0, err = runPhase(srv0.Handler(), pool, spec, rng, nil); err != nil {
			srv0.Close()
			return err
		}
		b.logf("untraced %s", ref0)
		b.check(ref0.wrong == 0, "untraced %s: %d answers differ from State.Predict", spec.name, ref0.wrong)
	}
	srv0.Close()
	b.set("serve.allocs_per_req", float64(ref0.mallocs)/float64(ref0.sent))
	b.set("serve.fail_ratio", ref0.failRatio())
	b.set("serve.p90_ms", ref0.p90)
	b.set("serve.p99_ms", ref0.p99)
	b.attempted += ref0.sent
	b.failed += ref0.errors()

	reg1 := telemetry.New()
	srv1, _, _, err := sv.build(b, reg1, tb.tracer, pool)
	if err != nil {
		return err
	}
	defer srv1.Close()
	col := tb.collect()
	res, err := runServe(b, tracedHandler(srv1.Handler(), tb.tracer), pool, sv.t, nil)
	ix := tb.stop(col)
	if err != nil {
		return err
	}
	b.set("trace.serve_p50_overhead_ms", res.ref.p50-ref0.p50)
	b.set("serve.shed_queue_full", registryValue(reg1, "mamdr_serve_shed_total", "reason", "queue_full"))
	b.set("serve.shed_deadline", registryValue(reg1, "mamdr_serve_shed_total", "reason", "deadline"))
	b.set("serve.handler_us", median(ix.durations("bench.handler", time.Microsecond)))
	b.set("serve.pool_wait_us", median(ix.durations("serve.pool_wait", time.Microsecond)))
	b.set("serve.predict_us", median(ix.durations("serve.predict", time.Microsecond)))
	var self []float64
	for _, s := range ix.byName["bench.handler"] {
		d := s.Duration()
		ix.descendants(s, func(k *trace.Span) {
			if k.Name == "serve.pool_wait" || k.Name == "serve.predict" {
				d -= k.Duration()
			}
		})
		self = append(self, float64(d)/float64(time.Microsecond))
	}
	b.set("serve.handler_self_us", median(self))
	layerProbes(b, sv)
	return nil
}

// composedAll is State.ComposedFor of every domain of the served state.
func composedAll(sv served) []paramvec.Vector {
	composed := make([]paramvec.Vector, sv.ds.NumDomains())
	for d := range composed {
		composed[d] = sv.state.ComposedFor(d)
	}
	return composed
}

// spreadRows picks n interactions spread over domain d's training split.
func spreadRows(ds *data.Dataset, d, n int) []data.Interaction {
	dom := ds.Domains[d].Train
	ins := make([]data.Interaction, n)
	for i := range ins {
		ins[i] = dom[(i*7919)%len(dom)]
	}
	return ins
}

// coalescedMetrics are the per-layer metrics only probeCoalesced
// measures.
var coalescedMetrics = []string{"serve.publish_us", "serve.post_publish_p99_ms", "batch.rows_per_flush", "batch.linger_flush_share"}

// probeCoalesced drives the coalesced predict path on the workload's
// own state: a server built as mamdr-serve builds it with -batch-max 64
// and the default linger, single-row requests at coalescedTraffic's
// rate, and the state republished every second. It records the batch
// shape and the publish cost; every answer is checked like any other.
func probeCoalesced(b *bench, sv served) error {
	sv.t = coalescedTraffic.scaled(b.scale())
	reg := telemetry.New()
	srv, pool, _, err := sv.build(b, reg, nil, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(b.seed*7919 + 29))
	pub := sv.publisher(srv)
	var r *phaseResult
	for _, spec := range []phaseSpec{{"probe-warmup", sv.t.refRate, sv.t.warmDur}, {"probe", sv.t.refRate, sv.t.refDur}} {
		if r, err = runPhase(srv.Handler(), pool, spec, rng, pub); err != nil {
			return err
		}
		b.logf("coalesced %s", r)
		b.check(r.wrong == 0, "coalesced %s: %d answers differ from State.Predict", spec.name, r.wrong)
	}
	b.attempted += r.sent
	b.failed += r.errors()
	var pubUS []float64
	for _, p := range r.publishes {
		pubUS = append(pubUS, float64(p.dur)/float64(time.Microsecond))
	}
	p99, n := r.postPublishP99()
	b.logf("coalesced probe: %d publishes, median %.0fus; %d requests due within %s after one, p99 %.3fms",
		len(pubUS), median(pubUS), n, postPublishWindow, p99)
	b.set("serve.publish_us", median(pubUS))
	b.set("serve.post_publish_p99_ms", p99)
	flushes := registryValue(reg, "mamdr_serve_batch_flushes_total", "", "")
	b.set("batch.rows_per_flush", registryHistMean(reg, "mamdr_serve_batch_rows"))
	b.set("batch.linger_flush_share", registryValue(reg, "mamdr_serve_batch_flushes_total", "reason", "linger")/flushes)
	return nil
}

func tracedHandler(h http.Handler, tracer *trace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := trace.Start(tracer.Context(r.Context()), "bench.handler")
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.End()
	})
}

// layerProbes times single layers on a private replica of the served
// model: the per-domain parameter load the inline and batched predict
// paths do (paramvec.Restore of State.ComposedFor), the forward pass
// plus sigmoid at 1, 32 and 64 rows, and the dense kernels at the
// MLP's own layer shapes.
func layerProbes(b *bench, sv served) {
	m := models.MustNew("mlp", sv.mcfg)
	params := m.Parameters()
	composed := composedAll(sv)
	var load []float64
	for i := 0; i < 40; i++ {
		d := i % len(composed)
		t0 := time.Now()
		paramvec.Restore(params, composed[d])
		load = append(load, float64(time.Since(t0))/float64(time.Microsecond))
	}
	b.set("serve.param_load_us", median(load))

	for _, rows := range []int{1, 32, 64} {
		batch := sv.ds.MakeBatch(0, spreadRows(sv.ds, 0, rows))
		var fwd []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			logits := m.Forward(batch, false)
			framework.SigmoidAll(logits)
			logits.Release()
			fwd = append(fwd, float64(time.Since(t0))/float64(time.Microsecond))
		}
		b.set(fmt.Sprintf("serve.forward_us_r%d", rows), median(fwd))
	}

	tables := models.EmbeddingTablesOf(m)
	var weights []*autograd.Tensor
	for i, p := range params {
		if _, isTable := tables[i]; !isTable && p.Rows > 1 {
			weights = append(weights, p)
		}
	}
	for _, rows := range []int{64, 1} {
		b.set(fmt.Sprintf("kernels.gemm_gflops_b%d", rows), gemmGFLOPS(weights, rows))
	}
}

// gemmGFLOPS times DenseForward over the given weight shapes at batch
// rows (median of repeated passes) and returns GFLOP/s.
func gemmGFLOPS(weights []*autograd.Tensor, rows int) float64 {
	be := kernels.Default()
	var flops float64
	type shape struct {
		x, dst, bias []float64
		w            *autograd.Tensor
	}
	var shapes []shape
	for _, w := range weights {
		x := make([]float64, rows*w.Rows)
		for i := range x {
			x[i] = float64(i%13)/13 - 0.5
		}
		shapes = append(shapes, shape{x, make([]float64, rows*w.Cols), make([]float64, w.Cols), w})
		flops += 2 * float64(rows*w.Rows*w.Cols)
	}
	reps := int(2e6/flops) + 1
	var per []float64
	for trial := 0; trial < 15; trial++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, s := range shapes {
				clear(s.dst)
				be.DenseForward(s.dst, s.x, s.w.Data, s.bias, rows, s.w.Rows, s.w.Cols, kernels.ActReLU, 0)
			}
		}
		per = append(per, flops*float64(reps)/time.Since(t0).Seconds()/1e9)
	}
	return median(per)
}

// traceBench owns a traced run's tracer and its Chrome export.
type traceBench struct {
	b        *bench
	tracer   *trace.Tracer
	exporter *trace.ChromeExporter
	path     string
	all      []*trace.Span
}

// traceDir is where traced runs leave their Chrome traces, inside the
// checkout's ignored build directory.
const traceDir = ".bench_build/perfbench"

func newTraceBench(b *bench) (*traceBench, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
	tb := &traceBench{b: b, tracer: trace.New(trace.Options{FlightSize: -1}), exporter: trace.NewChromeExporter(path, 1), path: path}
	tb.tracer.AddSink(tb.exporter)
	return tb, nil
}

// collect starts gathering spans for one measured section.
func (tb *traceBench) collect() *trace.Collector {
	col := trace.NewCollector(1 << 22)
	tb.tracer.AddSink(col)
	return col
}

// stop ends a section and indexes its spans.
func (tb *traceBench) stop(col *trace.Collector) *spanIndex {
	tb.tracer.RemoveSink(col)
	if n := col.Dropped(); n > 0 {
		tb.b.check(false, "trace collector dropped %d spans", n)
	}
	spans := col.Spans()
	tb.all = append(tb.all, spans...)
	return indexSpans(spans)
}

// finish writes the Chrome trace and prints the self-time summary of
// every span the run collected.
func (tb *traceBench) finish() error {
	tb.tracer.RemoveSink(tb.exporter)
	if err := tb.exporter.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	var sb strings.Builder
	indexSpans(tb.all).writeSummary(&sb)
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		tb.b.logf("%s", line)
	}
	tb.b.logf("trace: wrote %s (%d spans)", tb.path, len(tb.all))
	return nil
}
