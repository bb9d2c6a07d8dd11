package snapshot

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/relations"
	"recipemodel/internal/resilience"
)

// testModels builds n distinct, structurally varied recipe models
// without training anything.
func testModels(n int) []*core.RecipeModel {
	names := []string{"onion", "garlic", "tomato", "saffron", "butter", "flour"}
	procs := []string{"chop", "fry", "boil", "bake"}
	out := make([]*core.RecipeModel, n)
	for i := range out {
		out[i] = &core.RecipeModel{
			Title:   "recipe-" + strings.Repeat("x", i%3) + names[i%len(names)],
			Cuisine: []string{"french", "indian", "thai"}[i%3],
			Ingredients: []core.IngredientRecord{
				{Phrase: "2 cups " + names[i%len(names)], Name: names[i%len(names)], Quantity: "2", Unit: "cups"},
				{Phrase: "1 tsp " + names[(i+1)%len(names)], Name: names[(i+1)%len(names)], Quantity: "1", Unit: "tsp", State: "chopped"},
			},
			Instructions: []string{"Step one.", "Step two."},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: procs[i%len(procs)]}},
				{Step: 1, Relation: relations.Relation{Process: procs[(i+1)%len(procs)]}},
			},
		}
	}
	return out
}

// noSleep keeps retry drills clock-free.
func noSleep(s *Store) { s.Backoff = resilience.Backoff{Sleep: func(time.Duration) {}} }

func TestBuildLoadRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	noSleep(st)
	models := testModels(17)
	v, err := st.Build(models)
	if err != nil {
		t.Fatal(err)
	}
	if v != "v000001" {
		t.Fatalf("version = %q", v)
	}
	cur, err := st.Current()
	if err != nil || cur != v {
		t.Fatalf("Current() = %q, %v", cur, err)
	}
	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != v || len(snap.Models) != len(models) {
		t.Fatalf("loaded %d docs of %q", len(snap.Models), snap.Version)
	}
	for i, m := range snap.Models {
		if m.Title != models[i].Title || len(m.Ingredients) != len(models[i].Ingredients) {
			t.Fatalf("doc %d did not round-trip: %+v", i, m)
		}
	}
}

func TestBuildSegments(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	// Spill past one segment boundary so the multi-segment path runs.
	n := segRecords + 3
	v, err := st.Build(testModels(n))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(st.VersionDir(v))
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs != 2 {
		t.Fatalf("%d docs produced %d segments, want 2", n, segs)
	}
	snap, err := st.Load(context.Background())
	if err != nil || len(snap.Models) != n {
		t.Fatalf("reload: %d docs, err %v", len(snap.Models), err)
	}
}

func TestBuildRefusesEmpty(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	if _, err := st.Build(nil); err == nil {
		t.Fatal("empty snapshot built without error")
	}
}

func TestVersionsSequence(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	models := testModels(3)
	for i := 0; i < 3; i++ {
		if _, err := st.Build(models); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[2] != "v000003" {
		t.Fatalf("versions = %v", vs)
	}
	if cur, _ := st.Current(); cur != "v000003" {
		t.Fatalf("CURRENT = %q after three builds", cur)
	}
}

// TestLoadRejectsCorruptSegment pins the integrity error contract: a
// flipped byte is a named-file error carrying both digests.
func TestLoadRejectsCorruptSegment(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, err := st.Build(testModels(5))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(st.VersionDir(v), "seg-000000.jsonl")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := st.Load(context.Background())
	if lerr == nil {
		t.Fatal("corrupt segment loaded without error")
	}
	msg := lerr.Error()
	if !strings.Contains(msg, "seg-000000.jsonl") {
		t.Fatalf("error does not name the file: %v", lerr)
	}
	if !strings.Contains(msg, "manifest expects sha256") {
		t.Fatalf("error does not carry expected-vs-found digests: %v", lerr)
	}
}

// TestLoadRejectsTornSegment: a truncated (torn-write) segment is a
// size mismatch naming the file.
func TestLoadRejectsTornSegment(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(5))
	segPath := filepath.Join(st.VersionDir(v), "seg-000000.jsonl")
	data, _ := os.ReadFile(segPath)
	if err := os.WriteFile(segPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := st.Load(context.Background())
	if lerr == nil || !strings.Contains(lerr.Error(), "manifest expects") {
		t.Fatalf("torn segment: err = %v", lerr)
	}
}

func TestLoadRejectsMissingManifest(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	if err := os.Remove(filepath.Join(st.VersionDir(v), "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(context.Background()); err == nil {
		t.Fatal("missing manifest loaded without error")
	}
}

func TestLoadRejectsEscapingSegmentName(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	manPath := filepath.Join(st.VersionDir(v), "MANIFEST.json")
	man, _ := os.ReadFile(manPath)
	evil := strings.Replace(string(man), "seg-000000.jsonl", "../../../etc/passwd", 1)
	if err := os.WriteFile(manPath, []byte(evil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Load(context.Background())
	if err == nil || !strings.Contains(err.Error(), "invalid segment name") {
		t.Fatalf("escaping segment name: err = %v", err)
	}
}

// TestLoadRetriesTransientFailures: an armed snapshot.load fault with
// a firing limit models a transient I/O failure; the store's backoff
// retries through it without a single real sleep.
func TestLoadRetriesTransientFailures(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	st.Backoff = resilience.Backoff{Attempts: 3, Sleep: func(time.Duration) {}}
	if _, err := st.Build(testModels(4)); err != nil {
		t.Fatal(err)
	}
	defer faults.Enable(FaultLoad, faults.Fault{Err: errors.New("transient read error"), Limit: 2})()
	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatalf("load did not retry through transient failures: %v", err)
	}
	if len(snap.Models) != 4 {
		t.Fatalf("loaded %d docs", len(snap.Models))
	}
	if got := faults.Hits(FaultLoad); got != 3 {
		t.Fatalf("load attempts = %d, want 3 (two failures + one success)", got)
	}
}

// TestLoadExhaustsRetries: a persistent failure comes back joined with
// the injected cause after the attempt budget.
func TestLoadExhaustsRetries(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	st.Backoff = resilience.Backoff{Attempts: 2, Sleep: func(time.Duration) {}}
	if _, err := st.Build(testModels(2)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	defer faults.Enable(FaultLoad, faults.Fault{Err: boom})()
	if _, err := st.Load(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected cause", err)
	}
	if got := faults.Hits(FaultLoad); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

// TestLoadLatestGoodFallsBack is the rollback acceptance check: when
// CURRENT names a corrupt snapshot, the store serves the newest
// version that checks out and reports why the bad one was rejected.
func TestLoadLatestGoodFallsBack(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(6)); err != nil { // v000001, good
		t.Fatal(err)
	}
	v2, err := st.Build(testModels(9)) // v000002, about to be torn
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(st.VersionDir(v2), "seg-000000.jsonl")
	data, _ := os.ReadFile(segPath)
	if err := os.WriteFile(segPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, rejected, err := st.LoadLatestGood(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != "v000001" || len(snap.Models) != 6 {
		t.Fatalf("fell back to %q with %d docs, want v000001 with 6", snap.Version, len(snap.Models))
	}
	if len(rejected) != 1 || !strings.Contains(rejected[0].Error(), v2) {
		t.Fatalf("rejected = %v, want one entry naming %s", rejected, v2)
	}
}

// TestLoadLatestGoodAllBad: with every version corrupt the error says
// so instead of inventing a corpus.
func TestLoadLatestGoodAllBad(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	if err := os.Remove(filepath.Join(st.VersionDir(v), "seg-000000.jsonl")); err != nil {
		t.Fatal(err)
	}
	_, rejected, err := st.LoadLatestGood(context.Background())
	if err == nil {
		t.Fatal("no loadable version, yet no error")
	}
	if len(rejected) != 1 {
		t.Fatalf("rejected = %v", rejected)
	}
}

// TestRollbackViaSetCurrent: the rollback primitive is pointing
// CURRENT back at an older version.
func TestRollbackViaSetCurrent(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v1, _ := st.Build(testModels(2))
	if _, err := st.Build(testModels(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCurrent(v1); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(context.Background())
	if err != nil || snap.Version != v1 || len(snap.Models) != 2 {
		t.Fatalf("rollback load: %v %q %d", err, snap.Version, len(snap.Models))
	}
	if err := st.SetCurrent("v999999"); err == nil {
		t.Fatal("SetCurrent accepted an uninstalled version")
	}
}

// TestInterruptedInstallLeavesNoVersion: a temp install directory left
// by a crash is invisible to Versions and to loaders.
func TestInterruptedInstallLeavesNoVersion(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-install: the hidden temp directory exists
	// but was never renamed into place.
	if err := os.MkdirAll(filepath.Join(st.Dir(), "snapshots", ".install-v000002"), 0o755); err != nil {
		t.Fatal(err)
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("versions = %v, temp install dir leaked in", vs)
	}
	// The next build reclaims the orphaned temp dir and installs cleanly.
	v, err := st.Build(testModels(3))
	if err != nil || v != "v000002" {
		t.Fatalf("rebuild over orphan: %q %v", v, err)
	}
}

// TestBuildCrashBeforeCurrentSwap is the install crash-window drill: a
// crash injected after the new version is durable but before CURRENT
// swings must leave CURRENT and Load on the previous version, and the
// next Build must install and publish cleanly.
func TestBuildCrashBeforeCurrentSwap(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(3)); err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("simulated crash")
	disarm := faults.Enable(checkpoint.FaultInstall, faults.Fault{Err: errCrash})
	_, err := st.Build(testModels(5))
	disarm()
	if !errors.Is(err, errCrash) {
		t.Fatalf("build under fault = %v, want injected crash", err)
	}
	if cur, err := st.Current(); err != nil || cur != "v000001" {
		t.Fatalf("CURRENT after crashed install = %q, %v; want v000001", cur, err)
	}
	snap, err := st.Load(context.Background())
	if err != nil || snap.Version != "v000001" || len(snap.Models) != 3 {
		t.Fatalf("load after crashed install: %v", err)
	}
	v, err := st.Build(testModels(7))
	if err != nil {
		t.Fatal(err)
	}
	snap, err = st.Load(context.Background())
	if err != nil || snap.Version != v || len(snap.Models) != 7 {
		t.Fatalf("after retry: %v, want %s with 7 docs", err, v)
	}
}

// TestSnapshotFormatPin hand-writes a version in the on-disk layout
// every deployed store already holds — snapshots/v000001/ with JSONL
// segments and an indented manifest (version, docs, segments[name,
// records, size, sha256]), plus a CURRENT line — and requires Load to
// serve it; a Build of the same models must emit the identical
// manifest under the next version name.
func TestSnapshotFormatPin(t *testing.T) {
	models := testModels(4)
	var seg bytes.Buffer
	enc := json.NewEncoder(&seg)
	for _, m := range models {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	manifestFor := func(version string) string {
		return fmt.Sprintf(`{
  "version": %q,
  "docs": 4,
  "segments": [
    {
      "name": "seg-000000.jsonl",
      "records": 4,
      "size": %d,
      "sha256": %q
    }
  ]
}
`, version, seg.Len(), checkpoint.Digest(seg.Bytes()))
	}
	dir := t.TempDir()
	verDir := filepath.Join(dir, "snapshots", "v000001")
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		filepath.Join(verDir, "seg-000000.jsonl"): seg.String(),
		filepath.Join(verDir, "MANIFEST.json"):    manifestFor("v000001"),
		filepath.Join(dir, "CURRENT"):             "v000001\n",
	} {
		if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := OpenStore(dir)
	noSleep(st)
	snap, err := st.Load(context.Background())
	if err != nil || snap.Version != "v000001" || len(snap.Models) != 4 {
		t.Fatalf("hand-written version: %v", err)
	}

	v2, err := st.Build(models)
	if err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(st.VersionDir(v2), "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestFor(v2); string(man) != want {
		t.Fatalf("Build manifest:\n%s\nwant:\n%s", man, want)
	}
	built, err := os.ReadFile(filepath.Join(st.VersionDir(v2), "seg-000000.jsonl"))
	if err != nil || !bytes.Equal(built, seg.Bytes()) {
		t.Fatalf("Build segment differs from the hand-written one (err %v)", err)
	}
	if cur, err := os.ReadFile(filepath.Join(dir, "CURRENT")); err != nil || string(cur) != v2+"\n" {
		t.Fatalf("CURRENT = %q, %v; want %q", cur, err, v2+"\n")
	}
}
