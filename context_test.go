package recipemodel

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
)

// TestAnnotateIngredientsContextMatchesPlain: with an uncancelled
// context the ctx batch API must be byte-identical to the plain one at
// any worker count.
func TestAnnotateIngredientsContextMatchesPlain(t *testing.T) {
	plain := batchAt(t, 4, func(p *Pipeline) []IngredientRecord {
		return p.AnnotateIngredients(batchPhrases)
	})
	for _, w := range []int{1, 8} {
		got := batchAt(t, w, func(p *Pipeline) []IngredientRecord {
			recs, err := p.AnnotateIngredientsContext(context.Background(), batchPhrases)
			if err != nil {
				t.Fatalf("workers=%d: err = %v", w, err)
			}
			return recs
		})
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("workers=%d: ctx batch diverged from plain batch", w)
		}
	}
}

// TestAnnotateIngredientsContextCancel: the core.annotate fault point
// cancels the context at an exact phrase count; dispatch must stop,
// the partial records must come back with context.Canceled, and the
// worker pool must fully drain (goroutine accounting) — all without a
// single sleep in the cancellation path.
func TestAnnotateIngredientsContextCancel(t *testing.T) {
	p := pipe(t)
	prev := p.Workers()
	p.SetWorkers(2)
	defer p.SetWorkers(prev)

	phrases := make([]string, 500)
	for i := range phrases {
		phrases[i] = "2 cups chopped onion"
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faults.Enable(core.FaultAnnotate, faults.Fault{OnHit: func(hit int) {
		if hit == 5 {
			cancel()
		}
	}})()

	before := runtime.NumGoroutine()
	recs, err := p.AnnotateIngredientsContext(ctx, phrases)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(recs) != len(phrases) {
		t.Fatalf("result length = %d, want %d (partial slots zero-valued)", len(recs), len(phrases))
	}
	annotated := 0
	for _, r := range recs {
		if r.Phrase != "" {
			annotated++
		}
	}
	if annotated == 0 || annotated >= len(phrases) {
		t.Fatalf("annotated = %d of %d; cancellation should stop dispatch mid-batch", annotated, len(phrases))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestModelRecipesPartialCancel covers the corpus-mining batch API:
// cancellation stops dispatch mid-corpus, and every recipe that was
// dispatched is mined whole — its model equals the uncancelled run's.
func TestModelRecipesPartialCancel(t *testing.T) {
	p := pipe(t)
	prev := p.Workers()
	p.SetWorkers(2)
	defer p.SetWorkers(prev)

	inputs := Inputs(SyntheticRecipes(80, 7))
	want, rejs, err := p.ModelRecipesPartial(context.Background(), inputs)
	if err != nil || len(rejs) != 0 {
		t.Fatalf("uncancelled run: err = %v, rejections = %+v", err, rejs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faults.Enable(core.FaultModel, faults.Fault{OnHit: func(hit int) {
		if hit == 3 {
			cancel()
		}
	}})()

	models, rejs, err := p.ModelRecipesPartial(ctx, inputs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rejs) != 0 {
		t.Fatalf("rejections = %+v", rejs)
	}
	nonNil := 0
	for i, m := range models {
		if m == nil {
			continue
		}
		nonNil++
		if !reflect.DeepEqual(m, want[i]) {
			t.Fatalf("model %d was cut short: differs from the uncancelled run", i)
		}
	}
	if nonNil == 0 || nonNil >= len(inputs) {
		t.Fatalf("mined %d of %d; cancellation should stop mid-corpus", nonNil, len(inputs))
	}
}

// TestModelRecipeContextDeadline: a single pathological recipe stops
// between steps once its deadline passes, returning the partial model.
func TestModelRecipeContextDeadline(t *testing.T) {
	p := pipe(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = "1 cup flour"
	}
	defer faults.Enable(core.FaultAnnotate, faults.Fault{OnHit: func(hit int) {
		if hit == 2 {
			cancel()
		}
	}})()
	m, err := p.ModelRecipeContext(ctx, "Bread", "", lines, "Mix the flour.")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil || len(m.Ingredients) == 0 || len(m.Ingredients) >= len(lines) {
		t.Fatalf("partial model: %+v", m)
	}

	// uncancelled, the ctx form matches ModelRecipe exactly.
	faults.Reset()
	want := p.ModelRecipe("Bread", "", lines[:3], "Mix the flour.")
	got, err := p.ModelRecipeContext(context.Background(), "Bread", "", lines[:3], "Mix the flour.")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ModelRecipeContext diverged from ModelRecipe on an uncancelled run")
	}
}
