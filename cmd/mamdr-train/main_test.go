package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mamdr"
	"mamdr/internal/core"
	"mamdr/internal/optim"
	"mamdr/internal/telemetry"
)

func smallDataset(t *testing.T) *mamdr.Dataset {
	t.Helper()
	ds, err := mamdr.GenerateDatasetErr(mamdr.DatasetSpec{Preset: "taobao-10", TotalSamples: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallOpts() trainOpts {
	return trainOpts{workers: 2, shards: 1, cache: true, epochs: 2, batch: 64, embDim: 8, seed: 7, syncPush: true}
}

// injectedFaults sums mamdr_fault_injected_total over every series.
func injectedFaults(t *testing.T, reg *telemetry.Registry) int {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "mamdr_fault_injected_total{") {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		total += n
	}
	return total
}

// TestDistributedDispatchBitIdentical: every -ps-workers run goes
// through the same 1-shard cluster trainer. An unset shard count, an
// explicit -ps-shards 1, and a fault-injected run over loopback RPC
// must print the same val/test AUC bit for bit under SyncPush.
func TestDistributedDispatchBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	run := func(o trainOpts) (val, test []float64, reg *telemetry.Registry) {
		reg = telemetry.New()
		val, test, _, err := trainDistributed(ds, "mlp", o, reg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return val, test, reg
	}
	unset := smallOpts()
	unset.shards = 0
	wantVal, wantTest, _ := run(unset)

	faulted := smallOpts()
	faulted.faults = "PushDelta:err@1,3; PullDense:err@2; conn:drop@3,7"
	for name, o := range map[string]trainOpts{"-ps-shards 1": smallOpts(), "-ps-faults": faulted} {
		val, test, reg := run(o)
		for d := range wantVal {
			if val[d] != wantVal[d] || test[d] != wantTest[d] {
				t.Fatalf("%s: domain %d AUC val %v test %v, want %v %v (bit-identical)",
					name, d, val[d], test[d], wantVal[d], wantTest[d])
			}
		}
		if o.faults != "" {
			if n := injectedFaults(t, reg); n == 0 {
				t.Fatalf("%s: no fault injected; the comparison is vacuous", name)
			}
		}
	}
}

// TestResumeRefusesStripedCheckpoint: a -checkpoint-dir holding only
// the lock-striped single server's <dir>/ps.ckpt (4 stripe optimizer
// states) must fail -resume loudly, naming the file, instead of
// starting fresh beside it.
func TestResumeRefusesStripedCheckpoint(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	legacy := filepath.Join(dir, "ps.ckpt")
	striped := struct {
		Params [][]float64
		Shards []optim.State
		Epoch  int
	}{Params: [][]float64{{0}}, Shards: make([]optim.State, 4), Epoch: 1}
	if err := core.SaveGob(legacy, striped); err != nil {
		t.Fatal(err)
	}

	o := smallOpts()
	o.checkpointDir, o.checkpointEvery, o.resume = dir, 1, true
	_, _, _, err := trainDistributed(ds, "mlp", o, nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("resume over %s: err = %v, want an error naming the file", legacy, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("refused resume still wrote checkpoints: %v", entries)
	}
}
