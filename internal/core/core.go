// Package core assembles the paper's full recipe-modeling pipeline
// (Fig 1): knowledge mining from the ingredients section (§II) and
// from the instructions section (§III), producing a uniform, computable
// RecipeModel — ingredient records with seven attributes, plus the
// temporal chain of many-to-many cooking events.
package core

import (
	"context"
	"strings"

	"recipemodel/internal/depparse"
	"recipemodel/internal/faults"
	"recipemodel/internal/gazetteer"
	"recipemodel/internal/lemma"
	"recipemodel/internal/ner"
	"recipemodel/internal/parallel"
	"recipemodel/internal/postag"
	"recipemodel/internal/relations"
	"recipemodel/internal/tokenize"
)

// IngredientRecord is one row of the paper's Table I: an ingredient
// phrase decomposed into its attributes.
type IngredientRecord struct {
	Phrase   string // the original phrase
	Name     string
	State    string
	Quantity string
	Unit     string
	Temp     string
	DryFresh string
	Size     string
}

// Event is one cooking event in the temporal chain: a process applied
// to sets of ingredients and utensils at a given instruction step.
type Event = relations.Event

// RecipeModel is the proposed recipe data structure (Fig 1).
type RecipeModel struct {
	Title        string
	Cuisine      string
	Ingredients  []IngredientRecord
	Instructions []string
	// Events is the temporal sequence of many-to-many relations.
	Events []Event
}

// Named fault points planted in the pipeline hot paths (see
// internal/faults). Disabled they cost one atomic load; armed they let
// tests inject latency, panics, or call-count-exact callbacks to prove
// cancellation, containment, and shedding without sleeps.
const (
	// FaultAnnotate fires at the top of every AnnotateIngredient call.
	FaultAnnotate = "core.annotate"
	// FaultInstruction fires at the top of every AnnotateInstruction call.
	FaultInstruction = "core.instruction"
	// FaultModel fires at the top of every ModelRecipeContext call
	// (ModelRecipe and the batch miner included).
	FaultModel = "core.model"
)

var (
	_ = faults.MustRegister(FaultAnnotate)
	_ = faults.MustRegister(FaultInstruction)
	_ = faults.MustRegister(FaultModel)
)

// Pipeline bundles the trained components needed to model a recipe.
type Pipeline struct {
	POS            *postag.Tagger
	IngredientNER  *ner.Tagger
	InstructionNER *ner.Tagger
	Extractor      *relations.Extractor
	lem            *lemma.Lemmatizer
}

// NewPipeline wires trained taggers into a pipeline. Pass nil for pos
// to use the embedded default tagger and nil for extractor to use the
// static-gazetteer extractor.
func NewPipeline(pos *postag.Tagger, ingredientNER, instructionNER *ner.Tagger, ex *relations.Extractor) *Pipeline {
	if pos == nil {
		pos = postag.Default()
	}
	if ex == nil {
		ex = relations.NewDefaultExtractor()
	}
	return &Pipeline{
		POS:            pos,
		IngredientNER:  ingredientNER,
		InstructionNER: instructionNER,
		Extractor:      ex,
		lem:            lemma.New(),
	}
}

// AnnotateIngredient runs the ingredient-section NER over one phrase
// and assembles the attribute record (Table I). Input is hardened
// first (see Sanitize); a rejected or panicking record degrades to a
// well-formed empty record that echoes the phrase — this method never
// panics on poison input. Callers that need the typed rejection use
// AnnotateIngredientChecked.
func (p *Pipeline) AnnotateIngredient(phrase string) IngredientRecord {
	rec, _ := p.AnnotateIngredientChecked(phrase)
	return rec
}

// RecordFromSpans assembles an IngredientRecord from entity spans;
// exported so gold annotations can be rendered identically.
func RecordFromSpans(phrase string, tokens []string, spans []ner.Span, lem *lemma.Lemmatizer) IngredientRecord {
	if lem == nil {
		lem = lemma.New()
	}
	rec := IngredientRecord{Phrase: phrase}
	set := func(dst *string, v string) {
		if *dst == "" {
			*dst = v
		} else {
			*dst += " " + v
		}
	}
	for _, s := range spans {
		surface := strings.ToLower(strings.Join(tokens[s.Start:s.End], " "))
		switch s.Type {
		case ner.Name:
			// canonicalize: lemmatize the head noun ("tomatoes"→"tomato").
			ws := strings.Fields(surface)
			ws[len(ws)-1] = lem.Lemma(ws[len(ws)-1], lemma.Noun)
			set(&rec.Name, strings.Join(ws, " "))
		case ner.State:
			set(&rec.State, surface)
		case ner.Quantity:
			set(&rec.Quantity, surface)
		case ner.Unit:
			set(&rec.Unit, surface)
		case ner.Temp:
			set(&rec.Temp, surface)
		case ner.DryFresh:
			set(&rec.DryFresh, surface)
		case ner.Size:
			set(&rec.Size, surface)
		}
	}
	return rec
}

// AnnotateInstruction runs the instruction-section stack over one
// step: NER entities, dependency parse, relation extraction. Like
// AnnotateIngredient it hardens its input and contains per-record
// panics: poison steps produce an empty annotation (nil spans, empty
// parse, nil relations), never a panic. AnnotateInstructionChecked
// surfaces the typed rejection.
func (p *Pipeline) AnnotateInstruction(step string) ([]ner.Span, *depparse.Tree, []relations.Relation) {
	ann, err := p.AnnotateInstructionChecked(step)
	if err != nil || ann.Tree == nil {
		return nil, depparse.Parse(nil, nil), nil
	}
	return ann.Spans, ann.Tree, ann.Relations
}

// ModelRecipe runs the full pipeline over a raw recipe: ingredient
// lines and instruction text (steps split on sentence boundaries).
func (p *Pipeline) ModelRecipe(title, cuisine string, ingredientLines []string, instructionText string) *RecipeModel {
	m, _ := p.ModelRecipeContext(context.Background(), title, cuisine, ingredientLines, instructionText) //recipelint:allow ctxflow documented non-ctx wrapper shim over ModelRecipeContext
	return m
}

// ModelRecipeContext mines one recipe, checking ctx between ingredient
// lines and between instruction steps so a request deadline can stop a
// pathological recipe mid-way. On cancellation it returns the partial
// model together with ctx.Err(); the completed portions are identical
// to what an uncancelled run produces.
func (p *Pipeline) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructionText string) (*RecipeModel, error) {
	_ = faults.InjectContext(ctx, FaultModel)
	m := &RecipeModel{Title: title, Cuisine: cuisine}
	for _, line := range ingredientLines {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		m.Ingredients = append(m.Ingredients, p.AnnotateIngredient(line))
	}
	steps := tokenize.SplitSentences(instructionText)
	var perStep [][]relations.Relation
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			m.Events = relations.Chain(perStep)
			return m, err
		}
		m.Instructions = append(m.Instructions, step)
		_, _, rels := p.AnnotateInstruction(step)
		perStep = append(perStep, rels)
	}
	m.Events = relations.Chain(perStep)
	return m, ctx.Err()
}

// InstructionAnnotation bundles the full instruction-stack output for
// one step, the batch-API counterpart of AnnotateInstruction's triple
// return.
type InstructionAnnotation struct {
	Step      string
	Spans     []ner.Span
	Tree      *depparse.Tree
	Relations []relations.Relation
}

// RecipeInput is one raw recipe as a website would present it — the
// unit of work of the batch mining engine.
type RecipeInput struct {
	Title           string
	Cuisine         string
	IngredientLines []string
	Instructions    string
}

// BuildDictionaries runs the instruction NER over a corpus of steps
// and builds the frequency-thresholded technique and utensil
// dictionaries of §III.A (thresholds 47 and 10). It returns the two
// lexicons and the raw frequency tables. The per-step predictions fan
// out over every CPU (pure); the frequency counting stays serial in
// step order, so the dictionaries are identical to a serial pass.
func BuildDictionaries(tagger *ner.Tagger, steps [][]string, techniqueThreshold, utensilThreshold int) (tech, uten *gazetteer.Lexicon, techFreq, utenFreq *gazetteer.FrequencyDictionary) {
	techFreq = gazetteer.NewFrequencyDictionary()
	utenFreq = gazetteer.NewFrequencyDictionary()
	preds := parallel.MapOrdered(0, steps, func(_ int, tokens []string) []ner.Span {
		return tagger.Predict(tokens)
	})
	for i, tokens := range steps {
		for _, s := range preds[i] {
			surface := strings.ToLower(strings.Join(tokens[s.Start:s.End], " "))
			switch s.Type {
			case ner.Process:
				techFreq.Observe(surface)
			case ner.Utensil:
				utenFreq.Observe(surface)
			}
		}
	}
	return techFreq.Filter(techniqueThreshold), utenFreq.Filter(utensilThreshold), techFreq, utenFreq
}

// Preprocess applies the paper's §II.C normalization to a phrase:
// tokenize, drop stop words, lemmatize, lower-case. It returns the
// normalized token slice. The NER taggers consume raw tokens (their
// features normalize internally); Preprocess is used by the clustering
// stage and exposed for the ablation benches.
func Preprocess(phrase string) []string {
	toks := tokenize.Tokenize(phrase)
	lem := sharedLemmatizer
	stop := stopSet
	var out []string
	for _, t := range toks {
		if t.Kind == tokenize.Punct || t.Kind == tokenize.Open || t.Kind == tokenize.Close {
			continue
		}
		w := tokenize.Normalize(t.Text)
		if stop.Contains(w) {
			continue
		}
		out = append(out, lem.LemmaAuto(w))
	}
	return out
}
