package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"recipemodel/internal/faults"
)

// TestRunConclusionContextCancel proves the corpus-mining pool honors
// cancellation: the FaultMine point cancels the context at an exact
// recipe count (no sleeps), after which dispatch stops, the partial
// statistics come back with ctx.Err(), and no worker goroutine leaks
// (before/after accounting).
func TestRunConclusionContextCancel(t *testing.T) {
	cfg := tinyConfig()
	cfg.ConclusionRecipes = 60
	cfg.Workers = 2
	ing, err := RunIngredient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := RunInstruction(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faults.Enable(FaultMine, faults.Fault{OnHit: func(hit int) {
		if hit == 3 {
			cancel()
		}
	}})()

	before := runtime.NumGoroutine()
	res, err := RunConclusion(ctx, cfg, ing.Models[CorpusBoth], ins.Tagger)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Recipes >= cfg.ConclusionRecipes {
		t.Fatalf("all %d recipes mined despite cancellation", res.Recipes)
	}
	if res.Recipes < 3 {
		t.Fatalf("recipes mined = %d, want >= 3 (in-flight work must finish)", res.Recipes)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}
