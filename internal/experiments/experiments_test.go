package experiments

import (
	"context"
	"strings"
	"testing"

	"recipemodel/internal/ner"
)

// testConfig is a cheap configuration for unit tests.
func testConfig() Config {
	c := DefaultConfig()
	c.PoolAllRecipes = 1800
	c.PoolFoodCom = 2400
	c.TrainFracA = 0.30
	c.TestFracA = 0.10
	c.TrainFracF = 0.30
	c.TestFracF = 0.10
	c.ClusterK = 10
	c.Epochs = 4
	c.InstructionTrain = 400
	c.InstructionTest = 150
	c.ConclusionRecipes = 120
	return c
}

func TestRunIngredientShape(t *testing.T) {
	res, err := RunIngredient(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Table III structure
	for _, c := range CorpusOrder {
		if res.TrainSize[c] == 0 || res.TestSize[c] == 0 {
			t.Fatalf("empty sizes for %s", c)
		}
	}
	if res.TrainSize[CorpusBoth] != res.TrainSize[CorpusAllRecipes]+res.TrainSize[CorpusFoodCom] {
		t.Fatal("BOTH training size must be the sum")
	}
	// Table IV shape: diagonal strong...
	for i := 0; i < 2; i++ {
		if res.F1[i][i] < 0.90 {
			t.Errorf("diagonal F1[%d][%d] = %.4f, want >= 0.90", i, i, res.F1[i][i])
		}
	}
	// ...and the BOTH model at least on par with the cross-domain cells.
	for ti := 0; ti < 3; ti++ {
		worst := 1.0
		for mi := 0; mi < 2; mi++ {
			if res.F1[ti][mi] < worst {
				worst = res.F1[ti][mi]
			}
		}
		if res.F1[ti][2] < worst-0.02 {
			t.Errorf("BOTH model underperforms on test %s: %.4f < worst single %.4f",
				CorpusOrder[ti], res.F1[ti][2], worst)
		}
	}
	// rendering
	if s := res.RenderTableIII(); !strings.Contains(s, "Training Set Size") {
		t.Error("Table III render")
	}
	if s := res.RenderTableIV(); !strings.Contains(s, "Testing Set") {
		t.Error("Table IV render")
	}
}

func TestRunTableI(t *testing.T) {
	cfg := testConfig()
	res, err := RunIngredient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, table := RunTableI(res.Models[CorpusBoth])
	if len(recs) != len(TableIExamples) {
		t.Fatalf("records = %d", len(recs))
	}
	// the famous first row: frozen puff pastry.
	first := recs[0]
	if first.Name == "" {
		t.Errorf("puff pastry row has no name: %+v", first)
	}
	if !strings.Contains(table, "Ingredient Phrase") {
		t.Error("table header missing")
	}
	// tomatoes row must be lemmatized.
	if recs[3].Name != "tomato" {
		t.Errorf("tomatoes row name = %q", recs[3].Name)
	}
}

func TestRenderTableII(t *testing.T) {
	s := RenderTableII()
	for _, tag := range []string{"NAME", "STATE", "UNIT", "QUANTITY", "SIZE", "TEMP", "DF"} {
		if !strings.Contains(s, tag) {
			t.Errorf("Table II missing %s", tag)
		}
	}
}

func TestRunInstructionShape(t *testing.T) {
	res := RunInstruction(testConfig())
	if res.Processes.F1 < 0.75 || res.Utensils.F1 < 0.75 {
		t.Fatalf("instruction F1 too low: %v / %v", res.Processes, res.Utensils)
	}
	if res.Processes.F1 > 0.999 && res.Utensils.F1 > 0.999 {
		t.Fatal("suspiciously perfect — noise/difficulty not applied")
	}
	if res.TechDict.Len() == 0 || res.UtenDict.Len() == 0 {
		t.Fatal("dictionaries empty")
	}
	if s := res.RenderTableV(); !strings.Contains(s, "Processes") {
		t.Error("Table V render")
	}
}

func TestFilterSpans(t *testing.T) {
	res := RunInstruction(testConfig())
	tokens := []string{"glorbulate", "the", "water"}
	spans := []ner.Span{{Start: 0, End: 1, Type: ner.Process}}
	if got := FilterSpans(spans, tokens, res.TechDict, res.UtenDict); len(got) != 0 {
		t.Fatalf("unknown process should be filtered: %v", got)
	}
}

func TestRunFigure2(t *testing.T) {
	cfg := testConfig()
	res, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PointsA) == 0 || len(res.PointsB) == 0 {
		t.Fatal("no points")
	}
	if res.ElbowK < 2 {
		t.Fatalf("elbow K = %d", res.ElbowK)
	}
	if len(res.SampledPhrases) != len(res.PointsA) {
		t.Fatal("sampled phrases not parallel to points")
	}
	if !strings.HasPrefix(res.SVGA(), "<svg") || !strings.HasPrefix(res.SVGB(), "<svg") {
		t.Fatal("SVG output")
	}
	if !strings.Contains(res.Render(), "inertia sweep") {
		t.Fatal("render")
	}
	// inertia must be non-increasing overall (elbow curve shape).
	if res.Inertias[0] < res.Inertias[len(res.Inertias)-1] {
		t.Fatal("inertia should decrease with k")
	}
}

func TestRunFigure3(t *testing.T) {
	tree, text := RunFigure3()
	if tree.RootIndex() < 0 {
		t.Fatal("no root")
	}
	if tree.Tokens[tree.RootIndex()] != "Bring" {
		t.Fatalf("root = %q, want Bring", tree.Tokens[tree.RootIndex()])
	}
	if !strings.Contains(text, "root") {
		t.Fatal("render")
	}
}

func TestRunFigures4And5(t *testing.T) {
	res := RunInstruction(testConfig())
	text, all := RunFigure4(res.Tagger)
	if len(all) != 4 {
		t.Fatalf("steps = %d", len(all))
	}
	if !strings.Contains(text, "PROCESS") {
		t.Fatalf("no process entities in:\n%s", text)
	}
	rels, fig5 := RunFigure5(res.Tagger)
	if len(rels) == 0 {
		t.Fatal("no relations")
	}
	found := false
	for _, r := range rels {
		if r.Process == "bring" && len(r.Ingredients) > 0 && len(r.Utensils) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("bring{water | pot} not reproduced: %v\n%s", rels, fig5)
	}
}

func TestRunConclusion(t *testing.T) {
	cfg := testConfig()
	ing, err := RunIngredient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := RunInstruction(cfg)
	res, err := RunConclusion(context.Background(), cfg, ing.Models[CorpusBoth], ins.Tagger)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recipes != cfg.ConclusionRecipes {
		t.Fatalf("recipes = %d", res.Recipes)
	}
	if res.Instructions == 0 || res.UniqueNames == 0 {
		t.Fatalf("empty stats: %+v", res)
	}
	if res.RelationsPerStep.Mean <= 0 {
		t.Fatalf("mean relations = %v", res.RelationsPerStep.Mean)
	}
	// the paper's argument: large dispersion relative to the mean
	// motivates many-to-many modeling.
	if res.RelationsPerStep.StdDev == 0 {
		t.Fatal("no variance in relation counts")
	}
	if !strings.Contains(res.Render(), "relations per instruction") {
		t.Fatal("render")
	}
}

func TestAblations(t *testing.T) {
	cfg := testConfig()
	a := AblationTrainer(cfg)
	if a.F1A == 0 || a.F1B == 0 {
		t.Fatalf("trainer ablation: %+v", a)
	}
	g := AblationGazetteer(cfg)
	if g.F1A < g.F1B-0.05 {
		t.Errorf("gazetteers should not hurt: %+v", g)
	}
	p := AblationPreprocess(cfg)
	if p.F1A == 0 || p.F1B == 0 {
		t.Fatalf("preprocess ablation: %+v", p)
	}
	s, err := AblationSampling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.F1A == 0 || s.F1B == 0 {
		t.Fatalf("sampling ablation: %+v", s)
	}
	th := AblationThreshold(cfg)
	if th.F1A == 0 {
		t.Fatalf("threshold ablation: %+v", th)
	}
	if !strings.Contains(a.Render(), "F1=") {
		t.Fatal("render")
	}
}

func TestScaledConfig(t *testing.T) {
	c := DefaultConfig().Scaled(10)
	if c.PoolAllRecipes != 1470 || c.ConclusionRecipes != 4000 {
		t.Fatalf("scaled config: %+v", c)
	}
	if DefaultConfig().Scaled(1).PoolAllRecipes != 14700 {
		t.Fatal("Scaled(1) should be identity")
	}
}

func TestAblationParserAndTagger(t *testing.T) {
	cfg := testConfig()
	p := AblationParser(cfg)
	if p.F1A < 0.8 {
		t.Fatalf("learned parser UAS = %v", p.F1A)
	}
	if p.F1B > p.F1A+1e-9 {
		t.Fatalf("LAS %v > UAS %v", p.F1B, p.F1A)
	}
	tg, err := AblationTagger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// the two backends agree on most tokens but cluster moderately
	// differently — an honest sensitivity finding (see EXPERIMENTS.md).
	if tg.F1B < 0.70 {
		t.Fatalf("tagger token agreement = %v", tg.F1B)
	}
	if tg.F1A < 0.10 {
		t.Fatalf("clustering ARI across taggers = %v", tg.F1A)
	}
}

func TestRunCrossValidation(t *testing.T) {
	cfg := testConfig()
	res := RunCrossValidation(cfg, 5)
	if len(res.Folds) != 5 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.Mean < 0.85 {
		t.Fatalf("CV mean F1 = %v", res.Mean)
	}
	if res.Std > 0.1 {
		t.Fatalf("CV std = %v", res.Std)
	}
	if !strings.Contains(res.Render(), "cross-validation") {
		t.Fatal("render")
	}
}

func TestIngredientCI(t *testing.T) {
	res, err := RunIngredient(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.CI.Contains(res.F1[2][2]) {
		t.Fatalf("CI [%v, %v] misses point %v", res.CI.Lo, res.CI.Hi, res.F1[2][2])
	}
	if !strings.Contains(res.RenderTableIV(), "bootstrap") {
		t.Fatal("CI not rendered")
	}
}

func TestRunFigure1(t *testing.T) {
	cfg := testConfig()
	ing, err := RunIngredient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := RunInstruction(cfg)
	out := RunFigure1(ing.Models[CorpusBoth], ins.Tagger)
	for _, want := range []string{"Fig 1", "Recipe:", "puff pastry", "preheat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 missing %q:\n%s", want, out)
		}
	}
}
