package server

// Contracts of the single annotation resolver that hold on both
// endpoints: tier counters count phrases, not requests; routing and
// the agreement audit apply to batch slots as well as singles; and
// concurrent identical misses coalesce whether or not a cache is
// configured.

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"
	"testing"

	"recipemodel/internal/faults"
	"recipemodel/internal/flight"
	"recipemodel/internal/rules"
)

// readyTiers reads the /readyz tiers block.
func readyTiers(t *testing.T, s *Server) tierStatus {
	t.Helper()
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	return ready.Tiers
}

// TestBatchDecodesCountCRFServed: crf_served counts phrases answered by
// a fresh CRF decode on the batch endpoint too, one per phrase.
func TestBatchDecodesCountCRFServed(t *testing.T) {
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{})
	s.SetReady(true)
	b, _ := json.Marshal(map[string][]string{"phrases": {"salt", "2 eggs", "1 tbsp butter"}})
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(b)); w.Code != 200 {
		t.Fatalf("batch = %d %s", w.Code, w.Body.String())
	}
	if got := readyTiers(t, s).CRFServed; got != 3 {
		t.Fatalf("crf_served = %d after a batch of 3 uncached phrases, want 3", got)
	}
}

// TestFlightRecheckHitIsNotCRFServed: a flight leader that finds its
// phrase in the in-flight cache re-check answers from the cache — no
// decode, and crf_served does not move.
func TestFlightRecheckHitIsNotCRFServed(t *testing.T) {
	defer faults.Reset()
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 128})
	s.SetReady(true)
	want, _ := pipe.result("salt")
	// Between the request's first lookup and its leader's re-check,
	// another decode lands the entry.
	faults.Enable(flight.FaultLeader, faults.Fault{Limit: 1, OnHit: func(int) {
		s.cache.Put("salt", s.Generation(), want)
	}})
	w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt"))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"v1:salt"`) {
		t.Fatalf("annotate = %d %s", w.Code, w.Body.String())
	}
	if got := pipe.decodes.Load(); got != 0 {
		t.Fatalf("decodes = %d, want 0 (re-check hit)", got)
	}
	if got := readyTiers(t, s).CRFServed; got != 0 {
		t.Fatalf("crf_served = %d for a re-check cache hit, want 0", got)
	}
}

// TestBatchRoutesConfidentPhrase: with routing on, a confident phrase
// in a batch is answered by the rules tier as a plain ok item without
// a CRF decode, and counted as routed; an unconfident one decodes.
func TestBatchRoutesConfidentPhrase(t *testing.T) {
	pipe := &countingPipe{tag: "crf"}
	s := NewWithConfig(pipe, nil, Config{
		Logger:         log.New(io.Discard, "", 0),
		Rules:          rules.New(),
		RulesRoute:     true,
		RulesThreshold: 0.9,
	})
	s.SetReady(true)
	b, _ := json.Marshal(map[string][]string{"phrases": {"2 cups onion", "glorbified zork"}})
	w := do(t, s, http.MethodPost, "/annotate/batch", string(b))
	if w.Code != 200 {
		t.Fatalf("batch = %d %s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w)
	if resp.Degraded || resp.Tier != "" || resp.OK != 2 {
		t.Fatalf("envelope = %+v", resp)
	}
	if r := resp.Results[0]; r.Status != "ok" || r.Tier != "" || r.Record.Name != "onion" || r.Record.Phrase != "2 cups onion" {
		t.Fatalf("routed item = %+v (record %+v), want the rules tier's plain record", r, r.Record)
	}
	if r := resp.Results[1]; !strings.HasPrefix(r.Record.Name, "crf:") {
		t.Fatalf("unconfident item = %+v, want a CRF decode", r.Record)
	}
	if got := pipe.decodes.Load(); got != 1 {
		t.Fatalf("CRF decodes = %d, want 1 (the routed phrase must not decode)", got)
	}
	if st := readyTiers(t, s); st.RulesRouted != 1 || st.CRFServed != 1 {
		t.Fatalf("tier counters = %+v, want 1 routed / 1 crf", st)
	}
}

// TestBatchDecodesAreAudited: the agreement audit samples batch
// decodes as it does single ones.
func TestBatchDecodesAreAudited(t *testing.T) {
	s := NewWithConfig(&countingPipe{tag: "crf"}, nil, Config{
		Logger:          log.New(io.Discard, "", 0),
		Rules:           rules.New(),
		RulesThreshold:  0.9,
		AgreementSample: 1,
	})
	s.SetReady(true)
	b, _ := json.Marshal(map[string][]string{"phrases": {"2 cups onion", "2 cups onion", "glorbified zork"}})
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(b)); w.Code != 200 {
		t.Fatalf("batch = %d %s", w.Code, w.Body.String())
	}
	// One audit per decode: the duplicate shares its phrase's decode,
	// and the rules tier has no confident opinion on the unknown words.
	if st := readyTiers(t, s); st.AgreementSampled != 1 || st.Disagreements != 1 {
		t.Fatalf("audit counters = %+v, want 1 sampled / 1 disagreement", st)
	}
}

// TestUncachedHerdCoalesces: with the cache off, concurrent identical
// misses still share one decode — coalescing belongs to the resolver,
// not to the cache — and every member gets the same bytes.
func TestUncachedHerdCoalesces(t *testing.T) {
	defer faults.Reset()
	const herd = 50
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{})
	s.SetReady(true)
	release := make(chan struct{})
	faults.Enable(flight.FaultLeader, faults.Fault{OnHit: func(int) { <-release }})

	bodies := make(chan string, herd)
	for i := 0; i < herd; i++ {
		go func() {
			w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt"))
			if w.Code != 200 {
				t.Errorf("herd member = %d", w.Code)
			}
			bodies <- w.Body.String()
		}()
	}
	waitUntil(t, func() bool { return s.flights.Waiters(flightKey(1, "salt")) == herd-1 })
	close(release)
	first := <-bodies
	if !strings.Contains(first, `"v1:salt"`) {
		t.Fatalf("herd body = %s", first)
	}
	for i := 1; i < herd; i++ {
		if b := <-bodies; b != first {
			t.Fatalf("herd bodies diverged:\n%s\nvs\n%s", first, b)
		}
	}
	if got := pipe.decodes.Load(); got != 1 {
		t.Fatalf("decodes = %d, want 1", got)
	}
}
