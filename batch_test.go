package recipemodel

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// batchAt runs fn with the shared pipeline temporarily pinned to the
// given worker count, restoring the previous bound afterwards.
func batchAt[R any](t *testing.T, workers int, fn func(p *Pipeline) R) R {
	t.Helper()
	p := pipe(t)
	prev := p.Workers()
	p.SetWorkers(workers)
	defer p.SetWorkers(prev)
	return fn(p)
}

var batchPhrases = []string{
	"1 sheet frozen puff pastry ( thawed )",
	"2 cups chopped onion",
	"6 ounces blue cheese , at room temperature",
	"1/2 teaspoon fresh thyme , minced",
	"2-3 medium tomatoes",
	"1 teaspoon extra virgin olive oil",
	"1 tablespoon whole milk",
	"100 grams sugar",
}

// TestAnnotateIngredientsMatchesSerial is the determinism contract of
// the batch API: at every worker count each record must equal the
// single-phrase method. The two poison phrases (empty, token bomb) are
// rejected inside the batch path, so their slots pin the echo-record
// contract: a rejected slot holds AnnotateIngredient's record too.
func TestAnnotateIngredientsMatchesSerial(t *testing.T) {
	phrases := append([]string{""}, batchPhrases...)
	phrases = append(phrases, strings.Repeat("a ", 30_000))
	want := make([]IngredientRecord, len(phrases))
	for i, phrase := range phrases {
		want[i] = pipe(t).AnnotateIngredient(phrase)
	}
	for _, w := range []int{1, 2, 8} {
		got := batchAt(t, w, func(p *Pipeline) []IngredientRecord {
			return p.AnnotateIngredients(phrases)
		})
		if len(got) != len(phrases) {
			t.Fatalf("workers=%d: want %d records, got %d", w, len(phrases), len(got))
		}
		for i := range phrases {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: batch[%d] != AnnotateIngredient(phrases[%d]):\n%.200v\n%.200v", w, i, i, got[i], want[i])
			}
		}
	}
}

// TestAnnotateInstructionsMatchesSerial covers the instruction stack:
// spans, parse trees and relations must all agree across worker
// counts, and clean steps are never rejected.
func TestAnnotateInstructionsMatchesSerial(t *testing.T) {
	steps := []string{
		"Bring the water to a boil in a large pot.",
		"Add the chopped tomatoes to the skillet.",
		"Preheat the oven to 375 °F.",
		"Mix the flour and sugar in a bowl.",
		"Simmer for 10 minutes.",
	}
	annotate := func(p *Pipeline) []InstructionAnnotation {
		anns, rejs, err := p.AnnotateInstructionsPartial(context.Background(), steps)
		if err != nil || len(rejs) != 0 {
			t.Fatalf("workers=%d: err = %v, rejections = %+v", p.Workers(), err, rejs)
		}
		return anns
	}
	serial := batchAt(t, 1, annotate)
	par := batchAt(t, 8, annotate)
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("workers=8 instruction batch diverged from serial")
	}
	for i, a := range serial {
		if a.Step != steps[i] {
			t.Fatalf("annotation %d is for %q, want %q", i, a.Step, steps[i])
		}
		if a.Tree == nil {
			t.Fatalf("annotation %d has no parse tree", i)
		}
	}
}

// TestModelRecipesMatchesSerial checks corpus mining end to end.
func TestModelRecipesMatchesSerial(t *testing.T) {
	inputs := Inputs(SyntheticRecipes(6, 42))
	serial := batchAt(t, 1, func(p *Pipeline) []*RecipeModel {
		return p.ModelRecipes(inputs)
	})
	par := batchAt(t, 8, func(p *Pipeline) []*RecipeModel {
		return p.ModelRecipes(inputs)
	})
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("workers=8 recipe mining diverged from serial")
	}
	for i, m := range serial {
		if m.Title != inputs[i].Title {
			t.Fatalf("model %d is %q, want %q", i, m.Title, inputs[i].Title)
		}
		if len(m.Ingredients) == 0 {
			t.Fatalf("model %d mined no ingredients", i)
		}
	}
}

// TestClusterPhrasesDeterministic: the now-parallel clustering path
// must stay a pure function of (phrases, k, seed).
func TestClusterPhrasesDeterministic(t *testing.T) {
	phrases := make([]string, 0, 40)
	for _, r := range SyntheticRecipes(8, 3) {
		phrases = append(phrases, r.IngredientLines...)
	}
	a1, p1, err := ClusterPhrases(phrases, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	a2, p2, err := ClusterPhrases(phrases, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("ClusterPhrases is not deterministic across runs")
	}
}

// TestSetWorkersBounds pins the knob's contract.
func TestSetWorkersBounds(t *testing.T) {
	p := pipe(t)
	prev := p.Workers()
	defer p.SetWorkers(prev)
	p.SetWorkers(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", p.Workers())
	}
	p.SetWorkers(0)
	if p.Workers() < 1 {
		t.Fatalf("SetWorkers(0) must reset to >= 1, got %d", p.Workers())
	}
}
