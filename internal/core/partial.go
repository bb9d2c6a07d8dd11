// Batch APIs: one per workload (ingredient phrases, instruction
// steps, whole recipes), each of the form XxxPartial(ctx, items,
// workers).
//
// All pipeline components are read-only after construction (the CRF
// and perceptron weight maps are only written during training, the
// lemmatizer and gazetteers are static tables), so one Pipeline may
// serve any number of goroutines. The batch methods fan per-item
// annotation out over a bounded worker pool with ordered result
// collection, making batch output byte-identical to a serial loop at
// any worker count. Each record is processed under a per-record
// recover inside the worker function — the pool's ordering and
// cancellation contracts are untouched — and poison records come back
// as typed quarantine rejections alongside the N-1 good results,
// which are byte-identical to the same records in a clean run. On
// cancellation no new record is dispatched, in-flight records finish,
// and the partial results are returned with ctx.Err().

package core

import (
	"context"

	"recipemodel/internal/faults"
	"recipemodel/internal/parallel"
	"recipemodel/internal/quarantine"
)

// FaultRecord is the index-aware fault point at the top of every
// batch-record worker call. The chaos drills arm it with
// Fault{Indices: []int{i}, PanicMsg: ...} to make exactly record i
// panic at any worker count; the per-record containment converts the
// panic into a quarantine rejection.
const FaultRecord = "core.record"

var _ = faults.MustRegister(FaultRecord)

// outcome is one worker-slot result: the value and a typed rejection.
// A slot cancelled before dispatch stays the zero outcome.
type outcome[R any] struct {
	res R
	err error
}

// contained runs one record's work with full containment: the indexed
// fault point fires first (inside the recover, so injected panics are
// contained like organic ones), then fn.
func contained[R any](i int, fallback quarantine.Code, fn func() (R, error)) (o outcome[R]) {
	defer func() {
		if r := recover(); r != nil {
			o.err = panicError(r, fallback)
		}
	}()
	if err := faults.InjectIndexed(FaultRecord, i); err != nil {
		o.err = panicError(err, fallback)
		return o
	}
	o.res, o.err = fn()
	return o
}

// collect splits per-slot outcomes into the aligned result slice and
// the rejection list (index-ordered). A rejected slot keeps the
// worker's own value: the echo record the checked annotators return,
// or the zero value when the worker panicked. Undispatched slots hold
// zero values; callers distinguish them by the rejection list — and,
// under cancellation, by the pool's contiguous-prefix guarantee: every
// slot before the first undispatched one is either a result or a
// rejection.
func collect[R any](outs []outcome[R], echo func(i int) string) ([]R, []quarantine.Rejection) {
	res := make([]R, len(outs))
	var rejs []quarantine.Rejection
	for i, o := range outs {
		res[i] = o.res
		if o.err != nil {
			rejs = append(rejs, quarantine.Reject(i, echo(i), o.err))
		}
	}
	return res, rejs
}

// AnnotateIngredientsPartial decomposes a batch of ingredient phrases
// on up to workers goroutines (<= 0: all CPUs). Record i corresponds
// to phrases[i] and equals AnnotateIngredient(phrases[i]), echo
// records of poison phrases included; poison phrases also appear in
// the rejection list (typed, index-ordered) instead of aborting the
// batch. The error is ctx.Err() when the run was cancelled, nil
// otherwise — rejections alone never produce an error.
func (p *Pipeline) AnnotateIngredientsPartial(ctx context.Context, phrases []string, workers int) ([]IngredientRecord, []quarantine.Rejection, error) {
	outs, err := parallel.MapOrderedCtx(ctx, workers, phrases, func(i int, phrase string) outcome[IngredientRecord] {
		return contained(i, quarantine.CodeRecordPanic, func() (IngredientRecord, error) {
			return p.AnnotateIngredientChecked(phrase)
		})
	})
	recs, rejs := collect(outs, func(i int) string { return phrases[i] })
	return recs, rejs, err
}

// AnnotateInstructionsPartial runs the instruction stack over a batch
// of steps (same contract as AnnotateIngredientsPartial).
func (p *Pipeline) AnnotateInstructionsPartial(ctx context.Context, steps []string, workers int) ([]InstructionAnnotation, []quarantine.Rejection, error) {
	outs, err := parallel.MapOrderedCtx(ctx, workers, steps, func(i int, step string) outcome[InstructionAnnotation] {
		return contained(i, quarantine.CodeRecordPanic, func() (InstructionAnnotation, error) {
			return p.AnnotateInstructionChecked(step)
		})
	})
	anns, rejs := collect(outs, func(i int) string { return steps[i] })
	return anns, rejs, err
}

// ModelRecipesPartial mines a corpus of raw recipes, one recipe per
// pool slot: a poison recipe yields a nil slot plus a typed rejection
// (echoing the recipe title), and the surviving models are
// byte-identical to the same recipes in a clean run. Cancellation
// gates dispatch, never a recipe mid-mine: each worker mines under
// context.WithoutCancel, so every dispatched recipe finishes whole.
// Under cancellation the processed slots form a contiguous prefix and
// ctx.Err() is returned.
func (p *Pipeline) ModelRecipesPartial(ctx context.Context, recipes []RecipeInput, workers int) ([]*RecipeModel, []quarantine.Rejection, error) {
	mine := context.WithoutCancel(ctx)
	outs, err := parallel.MapOrderedCtx(ctx, workers, recipes, func(i int, r RecipeInput) outcome[*RecipeModel] {
		return contained(i, quarantine.CodeRecordPanic, func() (*RecipeModel, error) {
			return p.ModelRecipeContext(mine, r.Title, r.Cuisine, r.IngredientLines, r.Instructions)
		})
	})
	models, rejs := collect(outs, func(i int) string { return recipes[i].Title })
	return models, rejs, err
}

// Processed reports how many leading slots of a partial run were
// dispatched: for models, the contiguous prefix where each slot is
// either a mined model or a rejection. The durable miner uses it to
// advance its checkpoint under cancellation without counting
// undispatched slots.
func Processed(models []*RecipeModel, rejs []quarantine.Rejection) int {
	rejected := make(map[int]bool, len(rejs))
	for _, r := range rejs {
		rejected[r.Index] = true
	}
	n := 0
	for i, m := range models {
		if m == nil && !rejected[i] {
			break
		}
		n++
	}
	return n
}
