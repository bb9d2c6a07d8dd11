package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef names a reported metric and its unit; BENCHMARK.json at
// the repository root lists the same names and units, with the bound
// and direction of each.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"single_rps", "req/s"},
	{"single_p50_us", "us"},
	{"single_p99_us", "us"},
	{"batch_phrases_per_s", "phrases/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"mine_recipes_per_s", "recipes/s"},
	{"mine_setup_s", "s"},
	{"record_match", "ratio"},
	{"peak_rss_mb", "MB"},
	{"mine_peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics, reported with
// -trace 1.
var perLayer = []metricDef{
	{"server.self_us", "us"},
	{"http.transport_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.allocs_per_phrase", "count"},
	{"server.resp_bytes_per_phrase", "B"},
	{"json.encode_ns_per_phrase", "ns"},
	{"json.decode_ns_per_phrase", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.evictions_per_kphrase", "count"},
	{"flight.coalesced_per_kphrase", "count"},
	{"core.decodes_per_kphrase", "count"},
	{"core.decode_us", "us"},
	{"core.sanitize_ns", "ns"},
	{"core.record_ns", "ns"},
	{"core.record_allocs", "count"},
	{"tokenize.ns_per_phrase", "ns"},
	{"ner.ingredient_ns_per_token", "ns"},
	{"ner.instruction_ns_per_token", "ns"},
	{"postag.ns_per_token", "ns"},
	{"depparse.ns_per_step", "ns"},
	{"relations.ns_per_step", "ns"},
	{"relations.per_step", "count"},
	{"parallel.batch_speedup", "x"},
	{"parallel.mine_speedup", "x"},
	{"checkpoint.overhead", "x"},
	{"gc.cpu_fraction", "ratio"},
	{"gc.heap_mb", "MB"},
	{"resilience.shed", "count"},
	{"rules.degraded_served", "count"},
	{"breaker.trips", "count"},
	{"trace.overhead", "x"},
	{"trace.unattributed", "ratio"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("unknown metric " + name) // a typo in this package
}

// metricOrder lists the names in m in table order.
func metricOrder(m map[string]metricValue) []string {
	rank := map[string]int{}
	for i, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		rank[d.name] = i
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	return names
}

// checkManifest verifies that the metrics reported are exactly the
// ones BENCHMARK.json lists for this kind of run, with the same units.
func checkManifest(path string, trace bool, got map[string]metricValue) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := man.EndToEnd
	if trace {
		want = man.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s lists %d metrics for this run, the run reported %d", path, len(want), len(got))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s listed in %s was not reported", m.Name, path)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q, %s says %q", m.Name, v.Unit, path, m.Unit)
		}
	}
	return nil
}
