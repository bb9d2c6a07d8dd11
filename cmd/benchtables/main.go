// Command benchtables regenerates every table and figure of the
// paper's evaluation section on the synthetic RecipeDB corpus and
// writes the artifacts (text tables, SVG figures) to an output
// directory.
//
// Usage:
//
//	benchtables -out out            # everything, paper scale
//	benchtables -out out -scale 10  # 10× smaller (quick)
//	benchtables -only table4        # one artifact to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"recipemodel/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	outDir := fs.String("out", "", "directory for artifacts (empty: stdout only)")
	scale := fs.Int("scale", 1, "shrink factor for quick runs (1 = paper scale)")
	only := fs.String("only", "", "single artifact: table1..table5, fig2..fig5, conclusion, crossval, ablations")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultConfig().Scaled(*scale)
	cfg.Seed = *seed

	emit := func(name, content string) error {
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", name, content)
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644)
	}

	want := func(name string) bool { return *only == "" || *only == name }

	var ing *experiments.IngredientResult
	needIngredient := want("table1") || want("table3") || want("table4") || want("conclusion")
	if needIngredient {
		var err error
		if ing, err = experiments.RunIngredient(cfg); err != nil {
			return err
		}
	}
	var ins *experiments.InstructionResult
	if want("table5") || want("fig1") || want("fig4") || want("fig5") || want("conclusion") {
		ins = experiments.RunInstruction(cfg)
	}

	if want("fig1") {
		if ing == nil {
			var err error
			if ing, err = experiments.RunIngredient(cfg); err != nil {
				return err
			}
		}
		if err := emit("fig1.txt", experiments.RunFigure1(ing.Models[experiments.CorpusBoth], ins.Tagger)); err != nil {
			return err
		}
	}

	if want("table1") {
		_, table := experiments.RunTableI(ing.Models[experiments.CorpusBoth])
		if err := emit("table1.txt", table); err != nil {
			return err
		}
	}
	if want("table2") {
		if err := emit("table2.txt", experiments.RenderTableII()); err != nil {
			return err
		}
	}
	if want("table3") {
		if err := emit("table3.txt", ing.RenderTableIII()); err != nil {
			return err
		}
	}
	if want("table4") {
		if err := emit("table4.txt", ing.RenderTableIV()); err != nil {
			return err
		}
	}
	if want("table5") {
		if err := emit("table5.txt", ins.RenderTableV()); err != nil {
			return err
		}
	}
	if want("fig2") {
		f2, err := experiments.RunFigure2(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig2.txt", f2.Render()); err != nil {
			return err
		}
		if err := emit("fig2a.svg", f2.SVGA()); err != nil {
			return err
		}
		if err := emit("fig2b.svg", f2.SVGB()); err != nil {
			return err
		}
	}
	if want("fig3") {
		_, text := experiments.RunFigure3()
		if err := emit("fig3.txt", text); err != nil {
			return err
		}
	}
	if want("fig4") {
		text, _ := experiments.RunFigure4(ins.Tagger)
		if err := emit("fig4.txt", text); err != nil {
			return err
		}
	}
	if want("fig5") {
		_, text := experiments.RunFigure5(ins.Tagger)
		if err := emit("fig5.txt", text); err != nil {
			return err
		}
	}
	if want("conclusion") {
		res, err := experiments.RunConclusion(context.Background(), cfg, ing.Models[experiments.CorpusBoth], ins.Tagger)
		if err != nil {
			return err
		}
		if err := emit("conclusion.txt", res.Render()); err != nil {
			return err
		}
	}
	if want("crossval") {
		res := experiments.RunCrossValidation(cfg, 5)
		if err := emit("crossval.txt", res.Render()); err != nil {
			return err
		}
	}
	if want("ablations") {
		text, err := experiments.RenderAblations(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablations.txt", text); err != nil {
			return err
		}
	}
	return nil
}
