package mamdr

// End-to-end integration tests across modules: data generation ->
// serialization -> training (multiple models x frameworks) -> per-domain
// serving -> runtime domain registration -> distributed parity.

import (
	"math"
	"path/filepath"
	"testing"

	"mamdr/internal/cluster"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
)

func TestPipelineGenerateSaveLoadTrainServe(t *testing.T) {
	// 1. Generate and persist.
	ds := GenerateDataset(DatasetSpec{Preset: "amazon-6", TotalSamples: 3000, Seed: 11})
	path := filepath.Join(t.TempDir(), "amazon6.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Train on the loaded copy.
	res, err := Train(TrainSpec{
		Dataset: loaded, Model: "deepfm", Framework: "mamdr",
		Epochs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Serve every domain; scores must be valid probabilities and not
	// all identical (the model must discriminate).
	for d := range loaded.Domains {
		b := loaded.FullBatch(d, data.Test)
		probs := res.Predictor.Predict(b)
		var minP, maxP = 1.0, 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("domain %d: invalid probability %g", d, p)
			}
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		if maxP-minP < 1e-6 {
			t.Fatalf("domain %d: constant predictions", d)
		}
	}

	// 4. Register a new domain at runtime (the MDR platform property).
	st, ok := res.Predictor.(*core.State)
	if !ok {
		t.Fatalf("mamdr predictor is %T, want *core.State", res.Predictor)
	}
	newID := st.AddDomain()
	if newID != loaded.NumDomains() {
		t.Fatalf("new domain id = %d, want %d", newID, loaded.NumDomains())
	}
	// The fresh domain serves with pure shared parameters.
	b := loaded.FullBatch(0, data.Test)
	bNew := *b
	bNew.Domain = newID
	probs := st.Predict(&bNew)
	if len(probs) != b.Size() {
		t.Fatal("new domain cannot serve")
	}
}

// TestEveryModelTrainsUnderMAMDR crosses all 11 model structures with
// the MAMDR framework on a small dataset — the model-agnosticism claim
// as a test.
func TestEveryModelTrainsUnderMAMDR(t *testing.T) {
	ds := GenerateDataset(DatasetSpec{Preset: "taobao-10", TotalSamples: 1500, Seed: 11})
	for _, name := range ModelNames() {
		res, err := Train(TrainSpec{
			Dataset: ds, Model: name, Framework: "mamdr",
			Epochs: 1, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(res.MeanTestAUC) {
			t.Fatalf("%s: NaN AUC", name)
		}
	}
}

// TestEveryFrameworkTrainsEveryRegime crosses all frameworks with both
// feature regimes (learned Amazon embeddings, frozen Taobao features).
func TestEveryFrameworkTrainsEveryRegime(t *testing.T) {
	for _, preset := range []string{"amazon-6", "taobao-10"} {
		ds := GenerateDataset(DatasetSpec{Preset: preset, TotalSamples: 1200, Seed: 11})
		for _, fw := range FrameworkNames() {
			res, err := Train(TrainSpec{
				Dataset: ds, Model: "mlp", Framework: fw,
				Epochs: 1, Seed: 5,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", preset, fw, err)
			}
			if math.IsNaN(res.MeanTestAUC) {
				t.Fatalf("%s/%s: NaN AUC", preset, fw)
			}
		}
	}
}

// TestDistributedMatchesLocalQuality verifies single-worker PS training
// reaches quality comparable to the in-process DN trainer on the same
// data (the distributed implementation is the same algorithm behind a
// store interface).
func TestDistributedMatchesLocalQuality(t *testing.T) {
	cfg := synth.Taobao10(4000, 11)
	cfg.FixedFeatures = false // exercise the embedding sync path
	ds := synth.Generate(cfg)

	local := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	localPred := framework.MustNew("dn").Fit(local, ds, framework.Config{
		Epochs: 10, Seed: 9, InnerOpt: "sgd", LR: 0.1, OuterLR: 0.5, OuterOpt: "sgd",
	})
	localAUC := framework.MeanAUC(localPred, ds, data.Test)

	replica := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	}
	opts := ps.Options{Workers: 1, Epochs: 10, Seed: 9, CacheEnabled: true}.WithDefaults()
	serving := replica()
	layout := ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving))
	one := cluster.NewLocal(serving.Parameters(), ps.NewPlan(layout, 1, 9),
		cluster.ShardOptions{OuterOpt: opts.OuterOpt, OuterLR: opts.OuterLR}, cluster.Options{})
	res := ps.TrainWithStore(replica, serving, one.Router, one.Router, ds, opts)
	distAUC := framework.MeanAUC(res.State, ds, data.Test)

	t.Logf("local DN AUC = %.4f, distributed DN AUC = %.4f", localAUC, distAUC)
	if math.Abs(localAUC-distAUC) > 0.08 {
		t.Fatalf("distributed quality diverges from local: %.4f vs %.4f", distAUC, localAUC)
	}
	if distAUC < 0.53 {
		t.Fatalf("distributed training too weak: %.4f", distAUC)
	}
}

// TestRankMetricAcrossRealRun sanity-checks the Table V RANK aggregation
// on genuine training output: ranks must average to (m+1)/2 across
// methods.
func TestRankMetricAcrossRealRun(t *testing.T) {
	ds := GenerateDataset(DatasetSpec{Preset: "taobao-10", TotalSamples: 1500, Seed: 11})
	perMethod := map[string][]float64{}
	for _, fw := range []string{"alternate", "finetune", "mamdr"} {
		res, err := Train(TrainSpec{Dataset: ds, Model: "mlp", Framework: fw, Epochs: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		perMethod[fw] = res.TestAUC
	}
	ranks := metrics.RankAmong(perMethod)
	var sum float64
	for _, r := range ranks {
		if r < 1 || r > 3 {
			t.Fatalf("rank %g out of [1,3]", r)
		}
		sum += r
	}
	if math.Abs(sum-6) > 1e-9 { // 1+2+3
		t.Fatalf("ranks sum to %g, want 6", sum)
	}
}
