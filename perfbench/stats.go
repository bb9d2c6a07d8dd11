package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank;
// xs must be sorted ascending and non-empty.
func quantile(xs []float64, q float64) float64 {
	i := int(q*float64(len(xs)) + 0.5)
	if i > 0 {
		i--
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without reordering it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed operation of a timed phase: when it ended
// and how long it took, both in nanoseconds from the slice start.
type sample struct {
	end, lat int64
}

// windowStats are per-window figures of a phase, accumulated over its
// slices.
type windowStats struct {
	rates, p50s, p99s []float64 // completions/s and latency in ns
	steal             []float64 // share of CPU time stolen by the host
	samples           int       // operations that ended inside a window
}

// add cuts one slice's samples into n equal windows by end time. A
// phase reports the median over its windows, so a stall on a shared
// machine moves a few windows, not the result. weight is the phrases
// each operation carries, so a batch phase counts phrases; steal is the
// slice's stolen CPU share.
func (st *windowStats) add(samples []sample, dur time.Duration, n, weight int, steal float64) {
	width := dur.Nanoseconds() / int64(n)
	lats := make([][]float64, n)
	first := make([]int64, n)
	last := make([]int64, n)
	for _, s := range samples {
		w := s.end / width
		if w < 0 || w >= int64(n) {
			continue
		}
		if len(lats[w]) == 0 || s.end < first[w] {
			first[w] = s.end
		}
		last[w] = max(last[w], s.end)
		lats[w] = append(lats[w], float64(s.lat))
	}
	for w, l := range lats {
		st.samples += len(l)
		if len(l) < 2 || last[w] == first[w] {
			continue
		}
		// Completions per second between the window's first and last
		// completion.
		st.rates = append(st.rates, float64((len(l)-1)*weight)/(float64(last[w]-first[w])/1e9))
		sort.Float64s(l)
		st.p50s = append(st.p50s, quantile(l, 0.50))
		st.p99s = append(st.p99s, quantile(l, 0.99))
		st.steal = append(st.steal, steal)
	}
}

func (st windowStats) rate() float64 { return quietMedian(st.rates, st.steal) }
func (st windowStats) p50() float64  { return quietMedian(st.p50s, st.steal) }
func (st windowStats) p99() float64  { return quietMedian(st.p99s, st.steal) }

// quietMedian is the median of the values measured while the host
// stole the least CPU time. On a virtual machine that shares its host,
// a stretch where the hypervisor runs a neighbour instead shows up as
// steal in /proc/stat, and the figures taken then measure the
// neighbour, not the program. Values whose steal share is within
// stealSlack of the lowest are kept, and at least the quietest
// minQuiet.
func quietMedian(vals, steal []float64) float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := min(minQuiet, len(idx))
	for keep < len(idx) && steal[idx[keep]] <= steal[idx[0]]+stealSlack {
		keep++
	}
	q := make([]float64, 0, keep)
	for _, i := range idx[:keep] {
		q = append(q, vals[i])
	}
	return median(q)
}

const (
	// stealSlack is the steal share by which a measurement may exceed
	// the quietest one and still count as quiet.
	stealSlack = 0.02
	// minQuiet is the fewest measurements a median is taken over.
	minQuiet = 3
)

// cpuClock reads the machine-wide CPU time and the part of it the
// hypervisor stole, in clock ticks, from /proc/stat. Both read 0 where
// the file is missing.
func cpuClock() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealMeter measures the stolen share of CPU time since it started.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuClock()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuClock()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}
