package main

import (
	"time"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
)

// serve-rank serves Amazon-6 at the training scale with emb 32 and the
// default 64/32 MLP tower.
const (
	rankEmb       = 32
	serveEpochs   = 1
	serveBatches  = 2 // mini-batches per domain visit while training the serving state
	serveSetupRep = 5
)

// rankTraffic is the 32-candidate mix on the inline predict path, which
// every workload serves: serve-rank its own state, the train workloads
// the state they trained.
var rankTraffic = traffic{
	rows: 32, refRate: 500, refDur: 6 * time.Second, warmDur: 500 * time.Millisecond,
	ladder: ladder{step: 1.0905, points: 32, coarse: 8, rung: 2 * time.Second},
}

// coalescedTraffic is the coalesced predict path, probed only in
// serve-rank's traced run for the batch and publish layers: single-row
// requests to a server built with -batch-max 64 and the default linger,
// with the served state republished every second. No gated workload
// runs this path: its rate limit is set by queue_full sheds, which a
// stall of the shared machine triggers (see README.md).
var coalescedTraffic = traffic{
	rows: 1, batchMax: 64, publish: time.Second,
	refRate: 400, refDur: 4 * time.Second, warmDur: 500 * time.Millisecond,
}

// runServeRank is the serve workload: set-up (data, training the
// serving state, server construction and warm-up) repeated, then the
// serve part.
func runServeRank(b *bench) error {
	var (
		sv       served
		fitDurs  []float64
		firstAUC []float64
	)
	setup := func() (time.Duration, error) {
		ds := amazon6(b.seed)
		mcfg := mlpConfig(ds, rankEmb, b.seed)
		st, auc, dur := fit(ds, mcfg, serveFitConfig(b.seed))
		sv = served{ds: ds, state: st, mcfg: mcfg, t: rankTraffic.scaled(b.scale())}
		fitDurs = append(fitDurs, dur)
		if firstAUC == nil {
			firstAUC = auc
		}
		b.checkAUC("serving-state training", auc, firstAUC)
		srv, _, poolTime, err := sv.build(b, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		srv.Close()
		return poolTime, nil
	}
	if err := b.timeSetup(serveSetupRep, setup); err != nil {
		return err
	}
	b.set("train_s", median(fitDurs))
	b.set("test_auc", metrics.Mean(firstAUC))
	b.logf("serving state trained in %.3fs (median), mean test AUC %.4f; traffic %s",
		median(fitDurs), metrics.Mean(firstAUC), sv.t.describe())
	if !b.traced {
		return measureServe(b, sv, nil)
	}

	tb, err := newTraceBench(b)
	if err != nil {
		return err
	}
	col := tb.collect()
	st, dur, allocs := fitTraced(sv.ds, sv.mcfg, serveFitConfig(b.seed), tb.tracer)
	ix := tb.stop(col)
	b.checkAUC("traced step-by-step DN/DR replay vs Fit", framework.EvaluateAUC(st, sv.ds, data.Test), firstAUC)
	b.set("trace.train_overhead_s", dur-median(fitDurs))
	coreMetrics(b, ix, "bench.dn_epoch", "bench.dr_target", allocs)
	stepMetrics(b, ix)
	b.notOnPath(psMetrics...)
	sv.state = st
	if err := measureServe(b, sv, tb); err != nil {
		return err
	}
	if err := probeCoalesced(b, sv); err != nil {
		return err
	}
	return tb.finish()
}

func serveFitConfig(seed int64) framework.Config {
	return framework.Config{Epochs: serveEpochs, MaxBatchesPerDomain: serveBatches, Seed: seed}
}
