package recipemodel

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus the
// ablation benches of DESIGN.md §5 and micro-benchmarks of the hot
// kernels. Experiment benches run at 1/10 paper scale per iteration
// and report the headline quality metric via b.ReportMetric; the
// paper-scale artifacts are produced by cmd/benchtables.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"recipemodel/internal/cluster"
	"recipemodel/internal/corpus"
	"recipemodel/internal/crf"
	"recipemodel/internal/depparse"
	"recipemodel/internal/experiments"
	"recipemodel/internal/mathx"
	"recipemodel/internal/ner"
	"recipemodel/internal/postag"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/tokenize"
)

// benchCfg is the shared 1/10-scale experiment configuration.
func benchCfg() experiments.Config {
	return experiments.DefaultConfig().Scaled(10)
}

var (
	benchPipeOnce sync.Once
	benchPipe     *Pipeline
)

func benchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	benchPipeOnce.Do(func() {
		p, err := NewPipeline(DefaultOptions())
		if err != nil {
			panic(err)
		}
		benchPipe = p
	})
	return benchPipe
}

// --- Table benches ---

// BenchmarkTableI annotates the paper's seven example phrases.
func BenchmarkTableI(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, phrase := range experiments.TableIExamples {
			rec := p.AnnotateIngredient(phrase)
			if rec.Name == "" && rec.Quantity == "" {
				b.Fatalf("empty record for %q", phrase)
			}
		}
	}
}

// BenchmarkTableIII measures the training-set construction pipeline:
// phrase generation, POS embedding, K-Means, stratified sampling.
func BenchmarkTableIII(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIngredient(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TrainSize[experiments.CorpusBoth]), "train-size")
	}
}

// BenchmarkTableIV measures the full 3×3 cross-evaluation and reports
// the diagonal and weakest-cell F1.
func BenchmarkTableIV(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIngredient(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for ti := 0; ti < 3; ti++ {
			for mi := 0; mi < 3; mi++ {
				if res.F1[ti][mi] < worst {
					worst = res.F1[ti][mi]
				}
			}
		}
		b.ReportMetric(res.F1[0][0], "F1-AA")
		b.ReportMetric(res.F1[1][1], "F1-FF")
		b.ReportMetric(worst, "F1-worst")
	}
}

// BenchmarkTableV measures the instruction NER evaluation.
func BenchmarkTableV(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res := experiments.RunInstruction(cfg)
		b.ReportMetric(res.Processes.F1, "F1-processes")
		b.ReportMetric(res.Utensils.F1, "F1-utensils")
	}
}

// --- Figure benches ---

// BenchmarkFigure2 measures the cluster/PCA visualization pipeline.
func BenchmarkFigure2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ElbowK), "elbow-k")
	}
}

// BenchmarkFigure3 measures the dependency parse of the running
// example.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree, _ := experiments.RunFigure3()
		if tree.RootIndex() < 0 {
			b.Fatal("no root")
		}
	}
}

// BenchmarkFigure4 measures NER inference over the example instruction
// section.
func BenchmarkFigure4(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, step := range tokenize.SplitSentences(experiments.Figure4Section) {
			spans, _, _ := p.AnnotateInstruction(step)
			_ = spans
		}
	}
}

// BenchmarkFigure5 measures relation extraction on the running
// example, checking the Bring+Water/Bring+Pot merge each iteration.
func BenchmarkFigure5(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rels := p.AnnotateInstruction(experiments.Figure3Instruction)
		ok := false
		for _, r := range rels {
			if r.Process == "bring" && len(r.Ingredients) > 0 && len(r.Utensils) > 0 {
				ok = true
			}
		}
		if !ok {
			b.Fatalf("bring{water | pot} not reproduced: %v", rels)
		}
	}
}

// BenchmarkConclusionStats measures the §V corpus statistics pass.
func BenchmarkConclusionStats(b *testing.B) {
	cfg := benchCfg()
	cfg.ConclusionRecipes = 400
	ing, err := experiments.RunIngredient(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ins := experiments.RunInstruction(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConclusion(context.Background(), cfg, ing.Models[experiments.CorpusBoth], ins.Tagger)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RelationsPerStep.Mean, "rel-mean")
		b.ReportMetric(res.RelationsPerStep.StdDev, "rel-std")
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func BenchmarkAblationTrainer(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a := experiments.AblationTrainer(cfg)
		b.ReportMetric(a.F1A, "F1-sgd")
		b.ReportMetric(a.F1B, "F1-perceptron")
	}
}

func BenchmarkAblationSampling(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationSampling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.F1A, "F1-stratified")
		b.ReportMetric(a.F1B, "F1-uniform")
	}
}

func BenchmarkAblationGazetteer(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a := experiments.AblationGazetteer(cfg)
		b.ReportMetric(a.F1A, "F1-with")
		b.ReportMetric(a.F1B, "F1-without")
	}
}

func BenchmarkAblationPreprocess(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a := experiments.AblationPreprocess(cfg)
		b.ReportMetric(a.F1A, "F1-with")
		b.ReportMetric(a.F1B, "F1-without")
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a := experiments.AblationThreshold(cfg)
		b.ReportMetric(a.F1A, "F1-filtered")
		b.ReportMetric(a.F1B, "F1-unfiltered")
	}
}

// --- micro-benchmarks of the hot kernels ---

func BenchmarkTokenizer(b *testing.B) {
	const phrase = "1 (8 ounce) package cream cheese, softened and 1 1/2 cups whole milk"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if toks := tokenize.Tokenize(phrase); len(toks) == 0 {
			b.Fatal("no tokens")
		}
	}
}

func BenchmarkPOSTagger(b *testing.B) {
	tg := postag.Default()
	words := strings.Fields("bring the water to a boil in a large pot and add the chopped tomatoes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tags := tg.Tag(words); len(tags) != len(words) {
			b.Fatal("length mismatch")
		}
	}
}

func BenchmarkCRFDecode(b *testing.B) {
	p := benchPipeline(b)
	tokens := strings.Fields("1 ( 8 ounce ) package cream cheese , softened")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := p.AnnotateIngredient(strings.Join(tokens, " ")); rec.Name == "" {
			b.Fatal("no name")
		}
	}
}

func BenchmarkDependencyParse(b *testing.B) {
	tokens := strings.Fields("fry the potatoes with olive oil in a large pan for 10 minutes")
	tags := postag.Default().Tag(tokens)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := depparse.Parse(tokens, tags); tr.RootIndex() < 0 {
			b.Fatal("no root")
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]mathx.Vector, 2000)
	for i := range pts {
		pts[i] = make(mathx.Vector, 36)
		for d := 0; d < 6; d++ {
			pts[i][rng.Intn(36)] = float64(rng.Intn(4))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, cluster.Config{K: 23}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := NewPipeline(Options{Seed: int64(i), TrainingPhrases: 300, TrainingInstructions: 100, Epochs: 3})
		if err != nil {
			b.Fatal(err)
		}
		if p == nil {
			b.Fatal("nil pipeline")
		}
	}
}

func BenchmarkRecipeGeneration(b *testing.B) {
	g := recipedb.NewGenerator(recipedb.SourceFoodCom, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := g.Recipe(); len(r.Ingredients) == 0 {
			b.Fatal("empty recipe")
		}
	}
}

func BenchmarkEndToEndRecipe(b *testing.B) {
	p := benchPipeline(b)
	raw := SyntheticRecipes(1, 5)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := p.ModelRecipe(raw.Title, raw.Cuisine, raw.IngredientLines, raw.Instructions)
		if len(m.Ingredients) == 0 {
			b.Fatal("no ingredients")
		}
	}
}

func BenchmarkAblationParser(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		a := experiments.AblationParser(cfg)
		b.ReportMetric(a.F1A, "UAS")
		b.ReportMetric(a.F1B, "LAS")
	}
}

// BenchmarkCrossValidation measures the 5-fold CV protocol of §II.F.
func BenchmarkCrossValidation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res := experiments.RunCrossValidation(cfg, 5)
		b.ReportMetric(res.Mean, "F1-mean")
		b.ReportMetric(res.Std, "F1-std")
	}
}

// --- parallel batch-mining engine benches ---
//
// Each parallel bench has a workers=1 twin so the scaling factor on a
// given machine is the ratio of their phrases/sec (or seqs/sec,
// points/sec) metrics; the twins compute identical results by the
// engine's determinism guarantee.

// benchCorpusPhrases is a fixed synthetic phrase corpus for the batch
// annotation benches.
func benchCorpusPhrases(n int) []string {
	phrases := recipedb.NewGenerator(recipedb.SourceAllRecipes, 7).UniquePhrases(n)
	out := make([]string, len(phrases))
	for i, p := range phrases {
		out[i] = p.Text
	}
	return out
}

func benchAnnotateCorpus(b *testing.B, workers int) {
	p := benchPipeline(b)
	prev := p.Workers()
	p.SetWorkers(workers)
	defer p.SetWorkers(prev)
	phrases := benchCorpusPhrases(512)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if recs := p.AnnotateIngredients(phrases); len(recs) != len(phrases) {
			b.Fatal("short batch")
		}
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(phrases))/secs, "phrases/sec")
	}
}

// BenchmarkAnnotateCorpusSerial / BenchmarkAnnotateCorpusParallel
// drive the batch API over a 512-phrase corpus at workers=1 vs all
// CPUs.
func BenchmarkAnnotateCorpusSerial(b *testing.B)   { benchAnnotateCorpus(b, 1) }
func BenchmarkAnnotateCorpusParallel(b *testing.B) { benchAnnotateCorpus(b, 0) }

// BenchmarkAnnotateRunParallel measures single-phrase annotation under
// b.RunParallel — the server's concurrent-request shape, many
// goroutines sharing one read-only pipeline.
func BenchmarkAnnotateRunParallel(b *testing.B) {
	p := benchPipeline(b)
	phrases := benchCorpusPhrases(64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec := p.AnnotateIngredient(phrases[i%len(phrases)])
			if rec.Phrase == "" {
				b.Fatal("empty record")
			}
			i++
		}
	})
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "phrases/sec")
	}
}

func benchTrainCRF(b *testing.B, workers int) {
	const epochs = 3
	sents := corpus.IngredientSentences(
		recipedb.NewGenerator(recipedb.SourceFoodCom, 13).UniquePhrases(400))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tg := ner.Train(sents, ner.IngredientTypes,
			ner.NewIngredientExtractor(ner.DefaultFeatureOptions),
			ner.TrainConfig{Epochs: epochs, Seed: 1, Shards: crf.DefaultShards, Workers: workers})
		if tg == nil {
			b.Fatal("nil tagger")
		}
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(sents)*epochs)/secs, "seqs/sec")
	}
}

// BenchmarkCRFTrainSerial / BenchmarkCRFTrainSharded run the
// epoch-synchronous sharded trainer at workers=1 vs all CPUs; both fit
// the identical model (same Seed, same Shards).
func BenchmarkCRFTrainSerial(b *testing.B)  { benchTrainCRF(b, 1) }
func BenchmarkCRFTrainSharded(b *testing.B) { benchTrainCRF(b, 0) }

func benchKMeansWorkers(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]mathx.Vector, 2000)
	for i := range pts {
		pts[i] = make(mathx.Vector, 36)
		for d := 0; d < 6; d++ {
			pts[i][rng.Intn(36)] = float64(rng.Intn(4))
		}
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, cluster.Config{K: 23, Workers: workers}, rng); err != nil {
			b.Fatal(err)
		}
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(pts))/secs, "points/sec")
	}
}

// BenchmarkKMeansSerial / BenchmarkKMeansParallel compare the Lloyd
// distance scans at workers=1 vs all CPUs (bit-identical results).
func BenchmarkKMeansSerial(b *testing.B)   { benchKMeansWorkers(b, 1) }
func BenchmarkKMeansParallel(b *testing.B) { benchKMeansWorkers(b, 0) }
