package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"recipemodel/internal/core"
	"recipemodel/internal/lemma"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/tokenize"
)

// Heavy-tail shape of the annotate-hot mix (DESIGN §13).
const (
	hotPhrases  = 20
	tailPhrases = 2000
	hotShare    = 0.9
	// planLen is the length of each hot request plan; a phase that
	// sends more wraps around it.
	planLen = 1 << 18
)

// batchSize is the number of phrases in one /annotate/batch request.
const batchSize = 64

// phraseStream yields gold-annotated ingredient phrases that are
// distinct by core.CanonicalKey, alternating the two source styles
// like the synthetic corpus does.
type phraseStream struct {
	gens [2]*recipedb.Generator
	n    int
	seen map[string]bool
	lem  *lemma.Lemmatizer
}

func newPhraseStream(seed int64) *phraseStream {
	return &phraseStream{
		gens: [2]*recipedb.Generator{
			recipedb.NewGenerator(recipedb.SourceAllRecipes, seed),
			recipedb.NewGenerator(recipedb.SourceFoodCom, seed+1),
		},
		seen: map[string]bool{},
		lem:  lemma.New(),
	}
}

// next returns the next distinct phrase and, when withGold is set, its
// gold record rendered through core.RecordFromSpans.
func (s *phraseStream) next(withGold bool) (string, core.IngredientRecord, error) {
	for tries := 0; tries < 1000; tries++ {
		p := s.gens[s.n%2].IngredientPhrase()
		s.n++
		key, err := core.CanonicalKey(p.Text)
		if err != nil {
			return "", core.IngredientRecord{}, fmt.Errorf("generated phrase %q has no canonical key: %w", p.Text, err)
		}
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		var gold core.IngredientRecord
		if withGold {
			gold = core.RecordFromSpans(p.Text, p.Tokens, p.Spans, s.lem)
		}
		return p.Text, gold, nil
	}
	return "", core.IngredientRecord{}, fmt.Errorf("phrase generator produced no new phrase in 1000 draws")
}

// take returns n distinct phrases; the first scored of them carry
// gold records (the rest have zero-valued golds).
func (s *phraseStream) take(n, scored int) ([]string, []core.IngredientRecord, error) {
	texts := make([]string, n)
	golds := make([]core.IngredientRecord, min(n, scored))
	for i := range texts {
		t, g, err := s.next(i < scored)
		if err != nil {
			return nil, nil, err
		}
		texts[i] = t
		if i < scored {
			golds[i] = g
		}
	}
	return texts, golds, nil
}

// hotPlan draws a request plan over the hot set: plan[i] indexes the
// distinct phrase list, hot phrases first.
func hotPlan(seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]int32, planLen)
	for i := range plan {
		if rng.Float64() < hotShare {
			plan[i] = int32(rng.Intn(hotPhrases))
		} else {
			plan[i] = int32(hotPhrases + rng.Intn(tailPhrases))
		}
	}
	return plan
}

// singleBody is the /annotate request body for one phrase.
func singleBody(phrase string) []byte {
	b, err := json.Marshal(struct {
		Phrase string `json:"phrase"`
	}{phrase})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// batchBody is the /annotate/batch request body for the phrases.
func batchBody(phrases []string) []byte {
	b, err := json.Marshal(struct {
		Phrases []string `json:"phrases"`
	}{phrases})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// recipeGold renders the gold ingredient records of the n recipes that
// `recipemine mine -n n -seed seed` mines: the same generators, seeds
// and alternation as recipemodel.SyntheticRecipes.
func recipeGold(n int, seed int64) [][]core.IngredientRecord {
	gens := [2]*recipedb.Generator{
		recipedb.NewGenerator(recipedb.SourceAllRecipes, seed),
		recipedb.NewGenerator(recipedb.SourceFoodCom, seed+1),
	}
	lem := lemma.New()
	out := make([][]core.IngredientRecord, n)
	for i := range out {
		r := gens[i%2].Recipe()
		for _, ing := range r.Ingredients {
			out[i] = append(out[i], core.RecordFromSpans(ing.Text, ing.Tokens, ing.Spans, lem))
		}
	}
	return out
}

// recipeSteps returns the instruction steps of the n recipes mined
// for seed, split the way the pipeline splits them, for the
// instruction-stack layer replays.
func recipeSteps(n int, seed int64) []string {
	gens := [2]*recipedb.Generator{
		recipedb.NewGenerator(recipedb.SourceAllRecipes, seed),
		recipedb.NewGenerator(recipedb.SourceFoodCom, seed+1),
	}
	var steps []string
	for i := 0; i < n; i++ {
		var texts []string
		for _, in := range gens[i%2].Recipe().Instructions {
			texts = append(texts, in.Text)
		}
		steps = append(steps, tokenize.SplitSentences(strings.Join(texts, " "))...)
	}
	return steps
}
