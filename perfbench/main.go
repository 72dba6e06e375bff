// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates one workload from a seed, drives the program
// through its packages (core/framework for training, ps/cluster for the
// sharded trainer, serve.Server.Handler for serving, in process and
// without sockets), checks every output it gets, and prints one JSON
// result object as the last line of standard output:
//
//	bash perfbench/run.sh --workload train-amazon6 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run is traced: it records its own
// spans around each call into a layer (plus the spans the program emits
// when handed a Tracer), writes them as a Chrome trace under
// .bench_build/perfbench/, prints a per-layer self-time table, and
// reports the per-layer metrics. README.md lists the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runSeconds is the run length the workloads' phase durations are
// sized for; --seconds scales them.
const runSeconds = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	name, unit string
	moves      string // per-layer: the end-to-end metric it should move, and where
}

var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"train_s", "s", ""},
	{"test_auc", "1", ""},
	{"live_heap_mb", "MB", ""},
	{"serve_max_rps", "req/s", ""},
	{"serve_p50_ms", "ms", ""},
	{"serve_ok_ratio", "1", ""},
}

var perLayer = []metricDef{
	{"core.dn_epoch_ms", "ms", "train_s @ train-amazon6"},
	{"core.dr_target_ms", "ms", "train_s @ train-amazon6"},
	{"core.dr_share", "1", "train_s @ train-amazon6"},
	{"core.dr_self_ms", "ms", "train_s, live_heap_mb @ train-amazon6"},
	{"core.dr_alloc_mb", "MB", "train_s, live_heap_mb @ train-amazon6"},
	{"train.forward_us", "us", "train_s @ train-amazon6, train-cluster"},
	{"train.backward_us", "us", "train_s @ train-amazon6, train-cluster"},
	{"train.optimizer_us", "us", "train_s @ train-amazon6, train-cluster"},
	{"train.steps", "count", "train_s @ train-amazon6, train-cluster"},
	{"kernels.gemm_gflops_b64", "GFLOP/s", "train_s @ train-amazon6; serve_max_rps @ serve-rank"},
	{"kernels.gemm_gflops_b1", "GFLOP/s", "serve_max_rps @ serve-rank"},
	{"ps.pull_dense_us", "us", "train_s @ train-cluster"},
	{"ps.pull_rows_us", "us", "train_s @ train-cluster"},
	{"ps.push_delta_us", "us", "train_s @ train-cluster"},
	{"ps.calls", "count", "train_s @ train-cluster"},
	{"ps.floats_moved", "count", "train_s @ train-cluster"},
	{"ps.sync_share", "1", "train_s @ train-cluster"},
	{"cluster.shard_call_us_1shard", "us", "train_s @ train-cluster"},
	{"cluster.shard_call_us_4shard", "us", "train_s @ train-cluster"},
	{"cluster.fanout_ratio", "1", "train_s @ train-cluster"},
	{"serve.handler_us", "us", "serve_max_rps, serve_p50_ms, serve_ok_ratio @ serve-rank"},
	{"serve.pool_wait_us", "us", "serve_max_rps @ serve-rank"},
	{"serve.predict_us", "us", "serve_max_rps @ serve-rank"},
	{"serve.handler_self_us", "us", "serve_max_rps @ serve-rank"},
	{"serve.param_load_us", "us", "serve_max_rps @ serve-rank"},
	{"serve.forward_us_r1", "us", "serve_max_rps @ serve-rank"},
	{"serve.forward_us_r32", "us", "serve_max_rps @ serve-rank"},
	{"serve.forward_us_r64", "us", "serve_max_rps @ serve-rank"},
	{"serve.allocs_per_req", "count", "serve_max_rps @ serve-rank"},
	{"serve.shed_queue_full", "count", "serve_ok_ratio, serve_max_rps @ serve-rank"},
	{"serve.shed_deadline", "count", "serve_ok_ratio, serve_max_rps @ serve-rank"},
	{"serve.fail_ratio", "1", "serve_ok_ratio @ serve-rank"},
	{"serve.p90_ms", "ms", "serve_p50_ms, serve_max_rps @ serve-rank"},
	{"serve.p99_ms", "ms", "serve_max_rps @ serve-rank"},
	{"serve.publish_us", "us", "coalesced probe only (serve-rank traced run); no gated workload"},
	{"serve.post_publish_p99_ms", "ms", "coalesced probe only (serve-rank traced run); no gated workload"},
	{"batch.rows_per_flush", "count", "coalesced probe only (serve-rank traced run); no gated workload"},
	{"batch.linger_flush_share", "1", "coalesced probe only (serve-rank traced run); no gated workload"},
	{"trace.train_overhead_s", "s", "(traced minus untraced train_s, same run)"},
	{"trace.serve_p50_overhead_ms", "ms", "(traced minus untraced reference serve_p50_ms, same run)"},
}

type workload struct {
	why string
	run func(*bench) error
}

var workloads = map[string]workload{
	"train-amazon6": {"single-process MAMDR Fit, compute-bound in DR; ps and serve coalescing bypassed", runTrainAmazon6},
	"train-cluster": {"the same data through ps.TrainWithStore over a 4-shard in-process cluster: the only ps/cluster sync path", runTrainCluster},
	"serve-rank":    {"32-candidate /predict on the inline path: forward-pass and handler bound, coalescer bypassed", runServeRank},
}

// bench carries one run's settings and accumulates its results.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	notes     []string // per-layer metrics this workload's path does not exercise
}

func (b *bench) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(false, "metric %s has no measurement (%v)", name, v)
		v = 0
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				b.metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// check records a correctness failure without stopping the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.problems = append(b.problems, msg)
		b.logf("CHECK FAILED: %s", msg)
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// scale is the factor applied to phase durations and time budgets.
func (b *bench) scale() float64 { return b.seconds / runSeconds }

// timeSetup runs fn reps times and records the median wall time as
// setup_s. fn returns the part of its time spent preparing the
// benchmark's own inputs, which is not set-up of the program.
func (b *bench) timeSetup(reps int, fn func() (time.Duration, error)) error {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		excluded, err := fn()
		if err != nil {
			return err
		}
		ts = append(ts, (time.Since(t0) - excluded).Seconds())
	}
	b.logf("setup: %d reps, median %.4fs (min %.4f max %.4f)", reps, median(ts), quantile(ts, 0), quantile(ts, 1))
	b.set("setup_s", median(ts))
	return nil
}

// notOnPath reports a per-layer metric as 0 because the workload never
// runs that layer.
func (b *bench) notOnPath(names ...string) {
	for _, n := range names {
		b.set(n, 0)
		b.notes = append(b.notes, n)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "run length in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s) or bad --seconds\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, metrics: map[string]metric{}}
	b.logf("workload %s (%s), seed %d, %.0fs, trace=%v, nproc %d, GOMAXPROCS %d",
		*name, w.why, *seed, *seconds, b.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	start := time.Now()
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if b.traced {
		want = perLayer
		for _, d := range perLayer {
			b.logf("layer %-30s -> %s", d.name, d.moves)
		}
		if len(b.notes) > 0 {
			b.logf("0 = not on this workload's path: %s", strings.Join(b.notes, ", "))
		}
	}
	out := map[string]metric{}
	for _, d := range want {
		m, ok := b.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.name)
			os.Exit(1)
		}
		out[d.name] = m
	}
	b.logf("measured in %.1fs", time.Since(start).Seconds())
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, out}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
