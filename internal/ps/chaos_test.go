package ps

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
	"mamdr/internal/faultinject"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// chaosOptions is the shared configuration for the determinism tests:
// SyncPush freezes the delta-apply order, so a faulty run and a clean
// run must agree float for float.
func chaosOptions() Options {
	return Options{
		Workers: 2, Epochs: 3, Seed: 9,
		CacheEnabled: true, SyncPush: true,
		OuterOpt: "adagrad", OuterLR: 0.1,
	}
}

func requireSameVector(t *testing.T, name string, a, b paramvec.Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: tensor count %d vs %d", name, len(a), len(b))
	}
	for ti := range a {
		if len(a[ti]) != len(b[ti]) {
			t.Fatalf("%s: tensor %d size %d vs %d", name, ti, len(a[ti]), len(b[ti]))
		}
		for j := range a[ti] {
			if a[ti][j] != b[ti][j] {
				t.Fatalf("%s: tensor %d[%d] = %g vs %g (must be bit-identical)",
					name, ti, j, a[ti][j], b[ti][j])
			}
		}
	}
}

// TestChaosDeterminismOverRPC is the headline fault-tolerance property:
// a 2-worker run over a real RPC transport with injected errors,
// delays, and connection drops converges to exactly the same parameters
// as a clean in-process run. Retries are idempotent (sequence tokens),
// absorbed faults never double-apply, and SyncPush fixes the apply
// order, so the trajectories are bit-identical.
func TestChaosDeterminismOverRPC(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)

	clean := train(factory, ds, chaosOptions(), "")

	// Faulty twin: same options, but every worker talks to the server
	// through its own freshly dialed client armed with a seeded fault
	// injector and a tight retry policy.
	serving := factory()
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "adagrad", 0.1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(server, lis)

	base, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	var injectors []*faultinject.Injector
	opts := chaosOptions()
	opts.WrapStore = func(workerID int, _ Store) Store {
		cl, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cl.SetBackoff(Backoff{Attempts: 30, Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: int64(workerID)})
		inj := faultinject.MustParse(
			"PushDelta:err@p0.1; PullDense:err@p0.1; PullRows:delay=1ms@p0.05; conn:drop@4,9", int64(workerID))
		cl.SetInjector(inj)
		injectors = append(injectors, inj)
		return cl
	}
	faulty := TrainWithStore(factory, serving, base, base, ds, opts)

	var injected int64
	for _, inj := range injectors {
		for _, n := range inj.Counts() {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing; the test is vacuous")
	}
	t.Logf("injected %d faults; comparing final parameters", injected)
	requireSameVector(t, "shared", clean.State.Shared, faulty.State.Shared)
}

// TestDuplicatePushAppliedExactlyOnce covers the idempotency token: a
// retransmitted delta (same WorkerID, same Seq) must be discarded, even
// when the replays race each other.
func TestDuplicatePushAppliedExactlyOnce(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(2, 2)}
	s := NewServer(params, nil, "sgd", 1)
	reg := telemetry.New()
	s.SetMetrics(NewMetrics(reg))

	mk := func(seq int64) Delta {
		return Delta{WorkerID: 7, Seq: seq, Dense: map[int][]float64{0: {1, 1, 1, 1}}}
	}
	ctx := context.Background()
	// The server owns copies of the initial tensors, so observe values
	// the way a worker would: through PullDense.
	val := func() float64 { return s.PullDense(ctx)[0][0] }

	// Sequential replay.
	s.PushDelta(ctx, mk(1))
	s.PushDelta(ctx, mk(1))
	if got := val(); got != 1 {
		t.Fatalf("after duplicate push param = %g, want 1 (applied exactly once)", got)
	}

	// Concurrent replay of the next sequence number (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.PushDelta(ctx, mk(2)) }()
	}
	wg.Wait()
	if got := val(); got != 2 {
		t.Fatalf("after concurrent replay param = %g, want 2", got)
	}

	// Stale (lower) sequence numbers are duplicates too.
	s.PushDelta(ctx, mk(1))
	if got := val(); got != 2 {
		t.Fatalf("stale seq applied: param = %g, want 2", got)
	}

	// Untagged deltas (Seq 0) always apply — the single-process path.
	s.PushDelta(ctx, Delta{Dense: map[int][]float64{0: {1, 1, 1, 1}}})
	if got := val(); got != 3 {
		t.Fatalf("untagged delta not applied: param = %g, want 3", got)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "mamdr_ps_duplicate_pushes_total 9") {
		t.Fatalf("duplicate pushes not counted; exposition:\n%s", buf.String())
	}
}

// TestWorkerLossRedistributesDomains kills one of two workers
// mid-training (its store errors every push) and checks the run still
// completes: the survivor takes over the dead worker's domains, the
// death is counted in telemetry, and the flight recorder dumps the
// anomaly.
func TestWorkerLossRedistributesDomains(t *testing.T) {
	ds := testDataset(t)
	reg := telemetry.New()
	prefix := filepath.Join(t.TempDir(), "flight")
	tracer := trace.New(trace.Options{FlightPath: prefix})

	opts := Options{
		Workers: 2, Epochs: 3, Seed: 9, CacheEnabled: true,
		Metrics: NewMetrics(reg), Tracer: tracer,
	}
	opts.WrapStore = func(workerID int, base Store) Store {
		if workerID != 1 {
			return base
		}
		return NewFaultyStore(base, faultinject.MustParse("PushDelta:err@*", 1))
	}
	res := train(replicaFactory(ds), ds, opts, "")

	if res.WorkerDeaths != 1 {
		t.Fatalf("WorkerDeaths = %d, want 1", res.WorkerDeaths)
	}
	if res.State == nil || len(res.State.Shared) == 0 {
		t.Fatal("training did not produce a state after the worker loss")
	}
	if res.Counters.DensePushes == 0 {
		t.Fatal("survivor pushed nothing")
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "mamdr_ps_worker_deaths_total 1") {
		t.Fatalf("worker death not counted; exposition:\n%s", buf.String())
	}

	dumps := tracer.Flight().Dumps()
	if len(dumps) == 0 {
		t.Fatal("no flight-recorder dump for the worker death")
	}
	found := false
	for _, d := range dumps {
		if d.Kind == "worker_death" {
			found = true
			if d.Path != "" {
				if _, err := os.Stat(d.Path); err != nil {
					t.Fatalf("flight dump file missing: %v", err)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no worker_death dump in %+v", dumps)
	}
}

// TestHeartbeatWatchdogCancelsStalledWorker stalls one worker's store
// (every pull takes far longer than the heartbeat budget) and checks the
// watchdog declares it dead instead of hanging the epoch.
func TestHeartbeatWatchdogCancelsStalledWorker(t *testing.T) {
	ds := testDataset(t)
	opts := Options{
		Workers: 2, Epochs: 1, Seed: 9, CacheEnabled: true,
		HeartbeatTimeout: 50 * time.Millisecond,
	}
	// Each delayed PullRows stalls well past the heartbeat budget; the
	// worker notices the cancellation at its next batch boundary.
	opts.WrapStore = func(workerID int, base Store) Store {
		if workerID != 1 {
			return base
		}
		return NewFaultyStore(base, faultinject.MustParse("PullRows:delay=500ms@*", 1))
	}
	done := make(chan *Result, 1)
	go func() { done <- train(replicaFactory(ds), ds, opts, "") }()
	select {
	case res := <-done:
		if res.WorkerDeaths != 1 {
			t.Fatalf("WorkerDeaths = %d, want 1 (stalled worker)", res.WorkerDeaths)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watchdog never cancelled the stalled worker")
	}
}

// TestResumeMatchesUninterrupted is the crash-safety property: train 6
// epochs straight through, then train 3 epochs + kill + resume to 6
// with the same seed — final parameters must be bit-identical.
func TestResumeMatchesUninterrupted(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)

	full := chaosOptions()
	full.Epochs = 6
	want := train(factory, ds, full, "")

	ckpt := filepath.Join(t.TempDir(), "ps.ckpt")

	interrupted := chaosOptions()
	interrupted.Epochs = 3 // the "crash" after epoch 3's checkpoint
	interrupted.CheckpointEvery = 1
	train(factory, ds, interrupted, ckpt)

	resumed := chaosOptions()
	resumed.Epochs = 6
	resumed.CheckpointEvery = 1
	resumed.Resume = true
	got := train(factory, ds, resumed, ckpt)

	if got.ResumedFrom != 3 {
		t.Fatalf("ResumedFrom = %d, want 3", got.ResumedFrom)
	}
	requireSameVector(t, "resumed shared", want.State.Shared, got.State.Shared)
}

// TestResumeWithoutCheckpointStartsFresh: Resume against an empty
// directory is not an error — there is simply nothing to restore.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	ds := testDataset(t)
	opts := chaosOptions()
	opts.Epochs = 1
	ckpt := filepath.Join(t.TempDir(), "ps.ckpt")
	opts.CheckpointEvery = 1
	opts.Resume = true
	res := train(replicaFactory(ds), ds, opts, ckpt)
	if res.ResumedFrom != -1 {
		t.Fatalf("ResumedFrom = %d, want -1 (fresh start)", res.ResumedFrom)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// TestLoadCheckpointRefusesStripedState: a checkpoint carrying several
// optimizer states (the retired lock-striped server's format) must be
// refused with the file named, never half-restored.
func TestLoadCheckpointRefusesStripedState(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(2, 2)}
	path := filepath.Join(t.TempDir(), "ps.ckpt")
	striped := serverCheckpoint{Params: paramvec.Snapshot(params), Shards: make([]optim.State, 4), Epoch: 2}
	if err := core.SaveGob(path, striped); err != nil {
		t.Fatal(err)
	}
	s := NewServer(params, nil, "sgd", 1)
	s.SetCheckpointPath(path)
	if _, err := s.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadCheckpoint = %v, want an error naming %s", err, path)
	}
}
