package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"recipemodel"
	"recipemodel/internal/core"
)

// Unique-mix sizes. The pools bound how many distinct phrases one run
// can send; a phase that exhausts its pool ends early and reports the
// time it ran.
const (
	uniqueWarmSingles = 256
	// uniqueWarmBatches fill the server's 65536-entry cache (16 shards
	// of 4096) past capacity before the timed slices, so every timed
	// miss also evicts, whatever the throughput, and the server's
	// memory is measured with a full cache.
	uniqueWarmBatches = 1100
	uniqueSinglesPerS = 12000 // single pool size per second of the phase
	uniqueBatchPerS   = 60000 // batch pool phrases per second of the phase
	scoredPhrases     = 4096  // phrases per phase scored against gold
	hotBatchBodies    = 4096  // distinct hot batch bodies, cycled
	// retainEvery keeps every n-th batch response for the checks run
	// after the timed window; retainCap bounds how many are kept.
	retainEvery = 8
	retainCap   = 4000
	// verifyEvery: on the unique mix, every n-th single is checked
	// against the in-process decode, besides the scored ones.
	verifyEvery = 16
)

// annotateLoad is the traffic of one HTTP workload: the distinct
// phrases it can send, how single and batch jobs map onto them, and the
// responses kept for checking after the timed window.
type annotateLoad struct {
	hot    bool
	texts  []string
	golds  map[int]core.IngredientRecord // phrase index → gold, scored phrases only
	bodies [][]byte                      // single request body per phrase

	singlePhrase func(job int) int
	batchPhrases func(job int) []int
	batchBody    func(job int) []byte

	warmSingles, warmBatches int
	singleJobs, batchJobs    int

	// first[p] is the first /annotate body served for phrase p (hot),
	// or the body of single job p (unique).
	first [][]byte
	mu    sync.Mutex
	kept  map[int][]byte // batch job → response body
}

func newAnnotateLoad(wl workload, seed int64, singleSecs, batchSecs float64) (*annotateLoad, error) {
	if wl.hot {
		return newHotLoad(seed)
	}
	return newUniqueLoad(seed, singleSecs, batchSecs)
}

// newHotLoad builds the annotate-hot traffic: warm-up sends every
// distinct phrase once as a single and once inside a batch, then the
// timed phases follow seeded heavy-tail plans.
func newHotLoad(seed int64) (*annotateLoad, error) {
	n := hotPhrases + tailPhrases
	texts, golds, err := newPhraseStream(seed).take(n, n)
	if err != nil {
		return nil, err
	}
	l := &annotateLoad{hot: true, texts: texts, golds: map[int]core.IngredientRecord{}, kept: map[int][]byte{}}
	for i, g := range golds {
		l.golds[i] = g
	}
	l.bodies = make([][]byte, n)
	for i, t := range texts {
		l.bodies[i] = singleBody(t)
	}
	l.first = make([][]byte, n)
	plan := hotPlan(seed + 100)
	l.warmSingles = n
	l.singleJobs = math.MaxInt32
	l.singlePhrase = func(job int) int {
		if job < n {
			return job
		}
		return int(plan[(job-n)%len(plan)])
	}
	l.warmBatches = (n + batchSize - 1) / batchSize
	l.batchJobs = math.MaxInt32
	bplan := hotPlan(seed + 200)
	l.batchPhrases = func(job int) []int {
		var idx []int
		if job < l.warmBatches {
			for p := job * batchSize; p < min(n, (job+1)*batchSize); p++ {
				idx = append(idx, p)
			}
			return idx
		}
		k := (job - l.warmBatches) % hotBatchBodies
		for j := 0; j < batchSize; j++ {
			idx = append(idx, int(bplan[(k*batchSize+j)%len(bplan)]))
		}
		return idx
	}
	bodies := make([][]byte, l.warmBatches+hotBatchBodies)
	for job := range bodies {
		bodies[job] = l.batchBodyOf(job)
	}
	l.batchBody = func(job int) []byte {
		if job < l.warmBatches {
			return bodies[job]
		}
		return bodies[l.warmBatches+(job-l.warmBatches)%hotBatchBodies]
	}
	return l, nil
}

// newUniqueLoad builds the annotate-unique traffic: one stream of
// phrases distinct by canonical key, cut into single warm-up, singles,
// batch warm-up and batches, in that order.
func newUniqueLoad(seed int64, singleSecs, batchSecs float64) (*annotateLoad, error) {
	singles := uniqueWarmSingles + int(uniqueSinglesPerS*singleSecs)
	batches := uniqueWarmBatches + int(uniqueBatchPerS*batchSecs)/batchSize
	st := newPhraseStream(seed)
	l := &annotateLoad{golds: map[int]core.IngredientRecord{}, kept: map[int][]byte{}}
	add := func(n, scoreFrom, scored int) error {
		base := len(l.texts)
		texts, _, err := st.take(scoreFrom, 0)
		if err != nil {
			return err
		}
		l.texts = append(l.texts, texts...)
		texts, golds, err := st.take(n-scoreFrom, scored)
		if err != nil {
			return err
		}
		for i, g := range golds {
			l.golds[base+scoreFrom+i] = g
		}
		l.texts = append(l.texts, texts...)
		return nil
	}
	if err := add(singles, uniqueWarmSingles, scoredPhrases); err != nil {
		return nil, err
	}
	if err := add(batches*batchSize, uniqueWarmBatches*batchSize, scoredPhrases); err != nil {
		return nil, err
	}
	l.bodies = make([][]byte, singles)
	for i := range l.bodies {
		l.bodies[i] = singleBody(l.texts[i])
	}
	l.first = make([][]byte, singles)
	l.warmSingles, l.singleJobs = uniqueWarmSingles, singles
	l.singlePhrase = func(job int) int { return job }
	l.warmBatches, l.batchJobs = uniqueWarmBatches, batches
	l.batchPhrases = func(job int) []int {
		idx := make([]int, batchSize)
		for j := range idx {
			idx[j] = singles + job*batchSize + j
		}
		return idx
	}
	bodies := make([][]byte, batches)
	for job := range bodies {
		bodies[job] = l.batchBodyOf(job)
	}
	l.batchBody = func(job int) []byte { return bodies[job] }
	return l, nil
}

func (l *annotateLoad) batchBodyOf(job int) []byte {
	idx := l.batchPhrases(job)
	ps := make([]string, len(idx))
	for i, p := range idx {
		ps[i] = l.texts[p]
	}
	return batchBody(ps)
}

// singlesPhase is the closed-loop /annotate phase. Every response must
// be 200; on the hot mix every body must equal the first body served
// for its phrase.
func (l *annotateLoad) singlesPhase(base string) phase {
	return phase{
		name:    "singles",
		url:     base + "/annotate",
		jobs:    l.singleJobs,
		weight:  1,
		windows: 3,
		body:    func(job int) []byte { return l.bodies[l.singlePhrase(job)] },
		check: func(job, status int, body []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d: %.200s", status, body)
			}
			// Warm-up repeats on every server of a run, and the hot mix
			// repeats phrases within one; each phrase's first body is
			// the reference for every later one. Concurrent jobs never
			// share a phrase before its first body is stored: warm-up
			// sends each phrase once.
			p := l.singlePhrase(job)
			if l.first[p] == nil {
				if l.keepSingle(p) {
					l.first[p] = bytes.Clone(body)
				}
				return nil
			}
			if !bytes.Equal(body, l.first[p]) {
				return fmt.Errorf("body for %q differs from the first one served", l.texts[p])
			}
			return nil
		},
	}
}

// batchPhase is the closed-loop /annotate/batch phase. Every envelope
// must be 200 with every slot ok and no degradation marker; a sample
// of bodies is kept for the per-phrase checks after the window.
func (l *annotateLoad) batchPhase(base string) phase {
	return phase{
		name:    "batch",
		url:     base + "/annotate/batch",
		jobs:    l.batchJobs,
		weight:  batchSize,
		windows: 2,
		body:    l.batchBody,
		check: func(job, status int, body []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d: %.200s", status, body)
			}
			n := len(l.batchPhrases(job))
			if !bytes.HasSuffix(body, []byte(fmt.Sprintf("\n  ],\n  \"ok\": %d,\n  \"rejected\": 0\n}\n", n))) {
				return fmt.Errorf("envelope is not all-ok and undegraded: ...%s", body[max(0, len(body)-120):])
			}
			if !l.keep(job) {
				return nil
			}
			l.mu.Lock()
			defer l.mu.Unlock()
			if prev, ok := l.kept[job]; ok {
				// A warm-up batch, sent again to a later server.
				if !bytes.Equal(prev, body) {
					return fmt.Errorf("batch %d body differs from the one an earlier server served", job)
				}
				return nil
			}
			if len(l.kept) < retainCap || job < l.warmBatches {
				l.kept[job] = bytes.Clone(body)
			}
			return nil
		},
	}
}

// keepSingle reports whether the first body served for phrase p is
// kept: every phrase on the hot mix, whose bodies must all equal the
// first; on the unique mix the warm-up phrases, which every server of
// a run serves, and the singles verify checks. Keeping no other body
// holds the client's heap, and its garbage collector's work beside the
// server, steady over a run.
func (l *annotateLoad) keepSingle(p int) bool {
	if l.hot || p < l.warmSingles {
		return true
	}
	_, scored := l.golds[p]
	return scored || p%verifyEvery == 0
}

// keep reports whether batch job's body is kept for checking: every
// warm-up batch on the hot mix, the scored batches on the unique mix,
// and every retainEvery-th batch.
func (l *annotateLoad) keep(job int) bool {
	if l.hot {
		return job < l.warmBatches || job%retainEvery == 0
	}
	return (job >= l.warmBatches && job < l.warmBatches+scoredPhrases/batchSize) || job%retainEvery == 0
}

// verdict is the outcome of the checks made after the timed window.
type verdict struct {
	badSingles, badBatches int      // responses that failed a check
	matched, scored        int      // records equal to gold / records scored
	problems               []string // first few reasons
}

func (v *verdict) problem(format string, args ...any) {
	if len(v.problems) < 5 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verify checks the kept responses against an in-process decode of the
// same bundle, checks that every phrase's batch record bytes are the
// same wherever it appeared, and scores served records against gold.
func (l *annotateLoad) verify(pipe *recipemodel.Pipeline) verdict {
	var v verdict
	want := map[int]core.IngredientRecord{}
	expect := func(p int) core.IngredientRecord {
		if r, ok := want[p]; ok {
			return r
		}
		r, err := pipe.AnnotateIngredientChecked(l.texts[p])
		if err != nil {
			v.problem("in-process decode of %q: %v", l.texts[p], err)
		}
		want[p] = r
		return r
	}
	score := func(p int, got core.IngredientRecord) {
		if gold, ok := l.golds[p]; ok {
			v.scored++
			if got == gold {
				v.matched++
			}
		}
	}
	for p, body := range l.first {
		if body == nil {
			continue
		}
		// Hot: every distinct phrase's first body. Unique: the scored
		// singles and a sample of the rest.
		if !l.hot {
			if _, scored := l.golds[p]; !scored && p%verifyEvery != 0 {
				continue
			}
		}
		exp, err := indented(expect(p))
		if err != nil || !bytes.Equal(body, exp) {
			v.badSingles++
			v.problem("single %q: served %.300s, in-process decode gives %.300s", l.texts[p], body, exp)
			continue
		}
		var got core.IngredientRecord
		if err := json.Unmarshal(body, &got); err != nil {
			v.badSingles++
			v.problem("single %q: %v", l.texts[p], err)
			continue
		}
		score(p, got)
	}
	seen := map[int][]byte{}
	for job, body := range l.kept {
		var env struct {
			Results []struct {
				Status string          `json:"status"`
				Record json.RawMessage `json:"record"`
				Tier   string          `json:"tier"`
			} `json:"results"`
		}
		idx := l.batchPhrases(job)
		if err := json.Unmarshal(body, &env); err != nil || len(env.Results) != len(idx) {
			v.badBatches++
			v.problem("batch %d: malformed envelope (%v)", job, err)
			continue
		}
		bad := false
		for i, p := range idx {
			item := env.Results[i]
			var got core.IngredientRecord
			err := json.Unmarshal(item.Record, &got)
			switch {
			case item.Status != "ok" || item.Tier != "" || err != nil:
				bad = true
				v.problem("batch %d slot %d: status %q tier %q (%v)", job, i, item.Status, item.Tier, err)
			case got != expect(p):
				bad = true
				v.problem("batch %d slot %d %q: served %+v, in-process decode gives %+v", job, i, l.texts[p], got, expect(p))
			case seen[p] != nil && !bytes.Equal(seen[p], item.Record):
				bad = true
				v.problem("batch %d slot %d %q: record bytes differ from an earlier batch", job, i, l.texts[p])
			}
			if seen[p] == nil {
				seen[p] = item.Record
				score(p, got)
			}
		}
		if bad {
			v.badBatches++
		}
	}
	return v
}

// indented encodes v the way the server writes a 200 JSON body.
func indented(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}
