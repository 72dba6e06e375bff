package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/cluster"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
	"mamdr/internal/trace"
)

// The training configuration of the recorded end-to-end run and the
// paper's headline table: Amazon-6, 20k samples, 5 epochs, MLP, emb 8.
const (
	trainSamples = 20000
	trainEpochs  = 5
	trainEmb     = 8
	// trainShare is the part of the run length spent on repeated
	// training; the rest serves the trained state.
	trainShare = 0.5
	// trainSetupReps repeats the few-millisecond set-up often enough
	// that its median outlasts the machine's scheduling stalls.
	trainSetupReps = 61
)

func amazon6(seed int64) *data.Dataset { return synth.Generate(synth.Amazon6(trainSamples, seed)) }

func mlpConfig(ds *data.Dataset, emb int, seed int64) models.Config {
	return models.Config{Dataset: ds, EmbDim: emb, Seed: seed}
}

func fitConfig(seed int64) framework.Config {
	return framework.Config{Epochs: trainEpochs, Seed: seed}
}

// fit runs MAMDR Fit and returns the trained state, its per-domain test
// AUC and the wall time of Fit alone.
func fit(ds *data.Dataset, mcfg models.Config, cfg framework.Config) (*core.State, []float64, float64) {
	kernels.SetThreads(0) // mamdr-train's -kernel-threads default
	m := models.MustNew("mlp", mcfg)
	t0 := time.Now()
	st := (&core.MAMDR{UseDN: true, UseDR: true}).Fit(m, ds, cfg).(*core.State)
	dur := time.Since(t0).Seconds()
	return st, framework.EvaluateAUC(st, ds, data.Test), dur
}

// fitTraced is Fit (Algorithm 3) driven step by step through the public
// core functions, with a benchmark span around every DN epoch and DR
// target and the program's own spans collected through cfg.Tracer. It
// reproduces Fit bit for bit. allocMB holds the bytes allocated by each
// DomainRegularization call.
func fitTraced(ds *data.Dataset, mcfg models.Config, cfg framework.Config, tracer *trace.Tracer) (st *core.State, dur float64, allocMB []float64) {
	cfg = cfg.WithDefaults()
	cfg.Tracer = tracer
	kernels.SetThreads(0)
	m := models.MustNew("mlp", mcfg)
	t0 := time.Now()
	params := m.Parameters()
	st = &core.State{Model: m, Shared: paramvec.Snapshot(params)}
	for range ds.Domains {
		st.AddDomain()
	}
	outer := optim.New(cfg.OuterOpt, cfg.OuterLR)
	ctx := tracer.Context(context.Background())
	var before, after runtime.MemStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng := core.EpochRNG(cfg.Seed, epoch)
		_, sp := trace.Start(ctx, "bench.dn_epoch")
		core.DomainNegotiationEpoch(st, ds, cfg, outer, rng)
		sp.End()
		for i := range ds.Domains {
			runtime.ReadMemStats(&before)
			_, sp := trace.Start(ctx, "bench.dr_target")
			core.DomainRegularization(st, ds, i, cfg, rng)
			sp.End()
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
	}
	paramvec.Restore(params, st.Shared)
	return st, time.Since(t0).Seconds(), allocMB
}

// checkAUC gates a trained table: bit-identical to the reference.
func (b *bench) checkAUC(what string, got, want []float64) {
	b.attempted++
	ok := equalBits(got, want)
	b.check(ok, "%s: per-domain test AUC %v differs from the reference %v", what, got, want)
	if !ok {
		b.failed++
	}
}

// checkLearned gates the reference table of a training workload: MAMDR
// on Amazon-6 must beat chance.
func (b *bench) checkLearned(auc []float64) {
	b.check(metrics.Mean(auc) > 0.55, "mean test AUC %.4f is no better than chance", metrics.Mean(auc))
}

func runTrainAmazon6(b *bench) error {
	var ds *data.Dataset
	if err := b.timeSetup(trainSetupReps, func() (time.Duration, error) {
		ds = amazon6(b.seed)
		models.MustNew("mlp", mlpConfig(ds, trainEmb, b.seed))
		return 0, nil
	}); err != nil {
		return err
	}
	mcfg, cfg := mlpConfig(ds, trainEmb, b.seed), fitConfig(b.seed)
	if b.traced {
		return traceTrainAmazon6(b, ds, mcfg, cfg)
	}
	var (
		durs    []float64
		st      *core.State
		refAUC  []float64
		started = time.Now()
	)
	for len(durs) < 2 || time.Since(started).Seconds()+median(durs) < trainShare*b.seconds {
		s, auc, dur := fit(ds, mcfg, cfg)
		if refAUC == nil {
			refAUC = auc
			b.checkLearned(auc)
		}
		b.checkAUC(fmt.Sprintf("Fit #%d", len(durs)+1), auc, refAUC)
		b.logf("Fit #%d: %.3fs, mean test AUC %.4f", len(durs)+1, dur, metrics.Mean(auc))
		st, durs = s, append(durs, dur)
	}
	b.set("train_s", median(durs))
	b.set("test_auc", metrics.Mean(refAUC))
	return measureServe(b, served{ds: ds, state: st, mcfg: mcfg, t: rankTraffic.scaled(b.scale())}, nil)
}

func traceTrainAmazon6(b *bench, ds *data.Dataset, mcfg models.Config, cfg framework.Config) error {
	tb, err := newTraceBench(b)
	if err != nil {
		return err
	}
	_, refAUC, plainDur := fit(ds, mcfg, cfg)
	col := tb.collect()
	st, dur, allocs := fitTraced(ds, mcfg, cfg, tb.tracer)
	ix := tb.stop(col)
	b.checkAUC("traced step-by-step DN/DR replay vs Fit", framework.EvaluateAUC(st, ds, data.Test), refAUC)
	b.logf("Fit %.3fs untraced, traced replay %.3fs", plainDur, dur)
	b.set("trace.train_overhead_s", dur-plainDur)
	coreMetrics(b, ix, "bench.dn_epoch", "bench.dr_target", allocs)
	stepMetrics(b, ix)
	b.notOnPath(psMetrics...)
	b.notOnPath(coalescedMetrics...)
	if err := measureServe(b, served{ds: ds, state: st, mcfg: mcfg, t: rankTraffic.scaled(b.scale())}, tb); err != nil {
		return err
	}
	return tb.finish()
}

// coreMetrics reads the DN/DR layer off the spans: dnSpan and drSpan
// name the spans wrapping one DN epoch and one DR target.
func coreMetrics(b *bench, ix *spanIndex, dnSpan, drSpan string, allocMB []float64) {
	dn, dr := ix.durations(dnSpan, time.Millisecond), ix.durations(drSpan, time.Millisecond)
	b.set("core.dn_epoch_ms", median(dn))
	b.set("core.dr_target_ms", median(dr))
	b.set("core.dr_share", sum(dr)/(sum(dn)+sum(dr)))
	var self []float64
	for _, s := range ix.byName["dr.target"] {
		self = append(self, float64(ix.self(s))/float64(time.Millisecond))
	}
	b.set("core.dr_self_ms", median(self))
	if allocMB == nil {
		b.notOnPath("core.dr_alloc_mb")
	} else {
		b.set("core.dr_alloc_mb", median(allocMB))
	}
}

// stepMetrics reads the per-mini-batch training phases off the spans.
func stepMetrics(b *bench, ix *spanIndex) {
	b.set("train.forward_us", median(ix.durations("train.forward", time.Microsecond)))
	b.set("train.backward_us", median(ix.durations("train.backward", time.Microsecond)))
	b.set("train.optimizer_us", median(ix.durations("train.optimizer", time.Microsecond)))
	b.set("train.steps", float64(ix.count("train.optimizer")))
}

var psMetrics = []string{
	"ps.pull_dense_us", "ps.pull_rows_us", "ps.push_delta_us", "ps.calls", "ps.floats_moved",
	"ps.sync_share", "cluster.shard_call_us_1shard", "cluster.shard_call_us_4shard", "cluster.fanout_ratio",
}

// The sharded trainer's configuration: 2 workers, 4 shards, the §IV-E
// cache on, SyncPush (bit-reproducible) and DR on.
const (
	clusterWorkers = 2
	clusterShards  = 4
)

func clusterOptions(seed int64) ps.Options {
	return ps.Options{
		Workers: clusterWorkers, CacheEnabled: true, Epochs: trainEpochs,
		UseDR: true, Seed: seed, SyncPush: true,
	}
}

// clusterRun is one sharded training run, built ready to start.
type clusterRun struct {
	replica func() models.Model
	serving models.Model
	router  *cluster.Router
	opts    ps.Options
}

// newClusterRun builds the plan, the shard servers and the router. With
// a callLog, every shard endpoint and every worker's view of the router
// is wrapped by a timing store.
func newClusterRun(ds *data.Dataset, seed int64, shards int, tracer *trace.Tracer, shardLog, workerLog *callLog) (*clusterRun, error) {
	replica := func() models.Model { return models.MustNew("mlp", mlpConfig(ds, trainEmb, seed)) }
	serving := replica()
	opts := clusterOptions(seed)
	opts.Tracer = tracer
	filled := opts.WithDefaults()
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), shards, seed)
	so := cluster.ShardOptions{OuterOpt: filled.OuterOpt, OuterLR: filled.OuterLR, Tracer: tracer}
	ro := cluster.Options{Tracer: tracer}
	if shardLog == nil {
		return &clusterRun{replica, serving, cluster.NewLocal(serving.Parameters(), plan, so, ro).Router, opts}, nil
	}
	servers := cluster.Shards(serving.Parameters(), plan, so)
	eps := make([][]ps.Store, len(servers))
	for sh, reps := range servers {
		for _, srv := range reps {
			eps[sh] = append(eps[sh], &timedStore{Store: srv, log: shardLog, span: "bench.shard_call"})
		}
	}
	router, err := cluster.New(plan, eps, ro)
	if err != nil {
		return nil, err
	}
	opts.WrapStore = func(_ int, base ps.Store) ps.Store {
		return &timedStore{Store: base, log: workerLog, span: "bench.ps_call"}
	}
	return &clusterRun{replica, serving, router, opts}, nil
}

func (c *clusterRun) train(ds *data.Dataset) (*ps.Result, float64) {
	kernels.SetThreads(0)
	t0 := time.Now()
	res := ps.TrainWithStore(c.replica, c.serving, c.router, c.router, ds, c.opts)
	return res, time.Since(t0).Seconds()
}

func runTrainCluster(b *bench) error {
	var (
		ds  *data.Dataset
		run *clusterRun
	)
	setup := func() (time.Duration, error) {
		var err error
		ds = amazon6(b.seed)
		run, err = newClusterRun(ds, b.seed, clusterShards, nil, nil, nil)
		return 0, err
	}
	if err := b.timeSetup(trainSetupReps, setup); err != nil {
		return err
	}
	if b.traced {
		return traceTrainCluster(b, ds, run)
	}
	var (
		durs    []float64
		st      *core.State
		refAUC  []float64
		started = time.Now()
	)
	for len(durs) < 2 || time.Since(started).Seconds()+median(durs) < trainShare*b.seconds {
		if len(durs) > 0 {
			var err error
			if run, err = newClusterRun(ds, b.seed, clusterShards, nil, nil, nil); err != nil {
				return err
			}
		}
		res, dur := run.train(ds)
		auc := framework.EvaluateAUC(res.State, ds, data.Test)
		if refAUC == nil {
			refAUC = auc
			b.checkLearned(auc)
		}
		b.checkAUC(fmt.Sprintf("TrainWithStore #%d", len(durs)+1), auc, refAUC)
		st, durs = res.State, append(durs, dur)
	}
	b.logf("TrainWithStore: %d runs, median %.3fs, mean test AUC %.4f", len(durs), median(durs), metrics.Mean(refAUC))
	b.set("train_s", median(durs))
	b.set("test_auc", metrics.Mean(refAUC))
	return measureServe(b, served{ds: ds, state: st, mcfg: mlpConfig(ds, trainEmb, b.seed), t: rankTraffic.scaled(b.scale())}, nil)
}

func traceTrainCluster(b *bench, ds *data.Dataset, plain *clusterRun) error {
	tb, err := newTraceBench(b)
	if err != nil {
		return err
	}
	res, plainDur := plain.train(ds)
	refAUC := framework.EvaluateAUC(res.State, ds, data.Test)

	var st *core.State
	for _, shards := range []int{1, clusterShards} {
		shardLog, workerLog := newCallLog(), newCallLog()
		run, err := newClusterRun(ds, b.seed, shards, tb.tracer, shardLog, workerLog)
		if err != nil {
			return err
		}
		col := tb.collect()
		res, dur := run.train(ds)
		ix := tb.stop(col)
		b.checkAUC(fmt.Sprintf("traced %d-shard run vs untraced %d-shard run", shards, clusterShards),
			framework.EvaluateAUC(res.State, ds, data.Test), refAUC)
		b.logf("%d shard(s): traced %.3fs (untraced %d shards %.3fs), %s", shards, dur, clusterShards, plainDur, workerLog)
		if shards == 1 {
			b.set("cluster.shard_call_us_1shard", median(shardLog.all()))
			continue
		}
		st = res.State
		b.set("cluster.shard_call_us_4shard", median(shardLog.all()))
		b.set("trace.train_overhead_s", dur-plainDur)
		b.set("ps.pull_dense_us", median(workerLog.op("pull_dense")))
		b.set("ps.pull_rows_us", median(workerLog.op("pull_rows")))
		b.set("ps.push_delta_us", median(workerLog.op("push_delta")))
		b.set("ps.calls", float64(len(workerLog.all())))
		b.set("ps.floats_moved", float64(res.Counters.FloatsMoved))
		b.set("ps.sync_share", sum(workerLog.all())/1e6/(clusterWorkers*dur))
		var fan []float64
		for _, op := range []string{"cluster.pull_dense", "cluster.pull_rows", "cluster.push_delta"} {
			for _, s := range ix.byName[op] {
				var slowest time.Duration
				ix.descendants(s, func(k *trace.Span) {
					if k.Name == "bench.shard_call" && k.Duration() > slowest {
						slowest = k.Duration()
					}
				})
				if slowest > 0 {
					fan = append(fan, float64(s.Duration())/float64(slowest))
				}
			}
		}
		b.set("cluster.fanout_ratio", median(fan))
		coreMetrics(b, ix, "worker.epoch", "dr.target", nil)
		stepMetrics(b, ix)
	}
	b.notOnPath(coalescedMetrics...)
	if err := measureServe(b, served{ds: ds, state: st, mcfg: mlpConfig(ds, trainEmb, b.seed), t: rankTraffic.scaled(b.scale())}, tb); err != nil {
		return err
	}
	return tb.finish()
}

// callLog collects call durations (µs) by operation.
type callLog struct {
	mu  sync.Mutex
	ops map[string][]float64
}

func newCallLog() *callLog { return &callLog{ops: map[string][]float64{}} }

func (c *callLog) add(op string, d time.Duration) {
	c.mu.Lock()
	c.ops[op] = append(c.ops[op], float64(d)/float64(time.Microsecond))
	c.mu.Unlock()
}

func (c *callLog) op(name string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.ops[name]...)
}

func (c *callLog) all() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, v := range c.ops {
		out = append(out, v...)
	}
	return out
}

func (c *callLog) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := "calls:"
	for _, op := range []string{"pull_dense", "pull_rows", "push_delta"} {
		s += fmt.Sprintf(" %s %d (median %.1fus)", op, len(c.ops[op]), median(c.ops[op]))
	}
	return s
}

// timedStore times every data call into a ps.Store and opens a span
// around it, so the calls the wrapped store makes nest underneath.
type timedStore struct {
	ps.Store
	log  *callLog
	span string
}

func (s *timedStore) PullDense(ctx context.Context) map[int][]float64 {
	ctx, sp := trace.Start(ctx, s.span, trace.A("op", "pull_dense"))
	t0 := time.Now()
	v := s.Store.PullDense(ctx)
	s.log.add("pull_dense", time.Since(t0))
	sp.End()
	return v
}

func (s *timedStore) PullRows(ctx context.Context, tensor int, rows []int) [][]float64 {
	ctx, sp := trace.Start(ctx, s.span, trace.A("op", "pull_rows"))
	t0 := time.Now()
	v := s.Store.PullRows(ctx, tensor, rows)
	s.log.add("pull_rows", time.Since(t0))
	sp.End()
	return v
}

func (s *timedStore) PushDelta(ctx context.Context, d ps.Delta) {
	ctx, sp := trace.Start(ctx, s.span, trace.A("op", "push_delta"))
	t0 := time.Now()
	s.Store.PushDelta(ctx, d)
	s.log.add("push_delta", time.Since(t0))
	sp.End()
}
