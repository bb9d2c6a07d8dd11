package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a started process whose exit is observed by one goroutine,
// so callers can both wait for readiness and notice an early exit.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's result; valid once done is closed
}

func startChild(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(cmd.Path), err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop asks the process to drain and exit, kills it if it has not
// exited within the grace period, and waits for it.
func (c *child) stop(grace time.Duration) error {
	select {
	case <-c.done:
		return c.err
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.err
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s did not exit within %v of SIGTERM", filepath.Base(c.cmd.Path), grace)
	}
}

// vmHWM reads a live process's peak resident set size, in MB, from
// /proc. (getrusage's figure for a reaped child is no substitute: a
// child started with vfork semantics inherits its parent's peak.)
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// mineWatch samples a running miner every few milliseconds: its peak
// RSS (the last sample before exit is the peak, less whatever the
// final interval added) and, for a durable run, how many complete
// records its output file holds. The first record ends the miner's
// set-up; the records after it give its rate over windows of the run.
type mineWatch struct {
	peak     float64
	progress []progress // from the first record on
	quit     chan struct{}
	done     chan struct{}
}

// progress is the number of complete records in a miner's output at
// one moment.
type progress struct {
	at    time.Time
	lines int
}

func watchMine(pid int, out string) *mineWatch {
	w := &mineWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var f *os.File
		defer func() {
			if f != nil {
				f.Close()
			}
		}()
		var off int64
		lines := 0
		buf := make([]byte, 64<<10)
		for {
			if mb, err := vmHWM(pid); err == nil {
				w.peak = max(w.peak, mb)
			}
			if f == nil && out != "" {
				f, _ = os.Open(out) // absent until the miner creates it
			}
			if f != nil {
				before := lines
				for {
					n, _ := f.ReadAt(buf, off)
					off += int64(n)
					lines += bytes.Count(buf[:n], []byte("\n"))
					if n < len(buf) {
						break
					}
				}
				if lines > before {
					w.progress = append(w.progress, progress{time.Now(), lines})
				}
			}
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *mineWatch) stop() {
	close(w.quit)
	<-w.done
}

// windowRates cuts a miner's progress, from its first record to its
// last sample, into windows of the given width and returns the records
// per second in each whole window, between the last samples at or
// before its start and its end. A stall lowers the windows it falls
// in; a window that sees no record reads 0.
func windowRates(ps []progress, width time.Duration) []float64 {
	if len(ps) == 0 {
		return nil
	}
	var rates []float64
	j := 0 // the last sample at or before the window's start
	for start := ps[0].at; !start.Add(width).After(ps[len(ps)-1].at); start = start.Add(width) {
		i := j
		for j+1 < len(ps) && !ps[j+1].at.After(start.Add(width)) {
			j++
		}
		rate := 0.0
		if d := ps[j].at.Sub(ps[i].at); d > 0 {
			rate = float64(ps[j].lines-ps[i].lines) / d.Seconds()
		}
		rates = append(rates, rate)
	}
	return rates
}

// firstWrite is an io.Writer that notes when its first bytes arrive
// and how many records they complete. It has no ReadFrom, so the copy
// from the child's pipe goes through Write.
type firstWrite struct {
	buf   bytes.Buffer
	at    time.Time
	lines int
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.at.IsZero() && len(p) > 0 {
		f.at, f.lines = time.Now(), bytes.Count(p, []byte("\n"))
	}
	return f.buf.Write(p)
}

// serverProc is a running recipeserver.
type serverProc struct {
	*child
	base string
}

// freeAddr picks a loopback address with a free port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches recipeserver with its default flags except
// -addr and -model and returns once /readyz first answers 200, with
// the time from process start to that answer.
func startServer(bin, model string, logw io.Writer) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(bin, "recipeserver"), "-addr", addr, "-model", model)
	cmd.Stdout, cmd.Stderr = logw, logw
	probe := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	t0 := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		return nil, 0, err
	}
	s := &serverProc{child: c, base: "http://" + addr}
	deadline := t0.Add(90 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("recipeserver exited before ready: %v", c.err)
		default:
		}
		if time.Now().After(deadline) {
			_ = s.stop(10 * time.Second)
			return nil, 0, fmt.Errorf("recipeserver not ready after %v", deadline.Sub(t0))
		}
		time.Sleep(time.Millisecond)
	}
}

// readyz is the part of the /readyz payload the benchmark reads.
type readyz struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Shed struct {
		Total int64 `json:"total"`
	} `json:"shed"`
	Tiers struct {
		RulesDegradedServed int64 `json:"rules_degraded_served"`
		Breaker             struct {
			Trips int64 `json:"trips"`
		} `json:"breaker"`
	} `json:"tiers"`
}

func getReadyz(client *http.Client, base string) (readyz, error) {
	var r readyz
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("/readyz answered %d", resp.StatusCode)
	}
	return r, json.NewDecoder(resp.Body).Decode(&r)
}

// counters is the change in /readyz counters over one phase.
type counters struct {
	hits, misses, evictions, shed, degraded, trips int64
}

func readyzDelta(a, b readyz) counters {
	return counters{
		hits:      b.Cache.Hits - a.Cache.Hits,
		misses:    b.Cache.Misses - a.Cache.Misses,
		evictions: b.Cache.Evictions - a.Cache.Evictions,
		shed:      b.Shed.Total - a.Shed.Total,
		degraded:  b.Tiers.RulesDegradedServed - a.Tiers.RulesDegradedServed,
		trips:     b.Tiers.Breaker.Trips - a.Tiers.Breaker.Trips,
	}
}

func (c *counters) add(d counters) {
	c.hits += d.hits
	c.misses += d.misses
	c.evictions += d.evictions
	c.shed += d.shed
	c.degraded += d.degraded
	c.trips += d.trips
}

func (c counters) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// mineRun is one finished `recipemine mine` invocation.
type mineRun struct {
	wall    time.Duration
	peakMB  float64
	out     []byte // mined JSONL
	dropped []byte // dead-letter JSONL (poison records)
	// rate is records per second from the first record written to the
	// process's exit: mining alone, without start-up and model load.
	rate float64
	// windows are the records per second over mineWindow-long windows
	// of a durable run's mining (see windowRates).
	windows []float64
}

// runMine runs `recipemine mine` on the bundle. With durable set the
// records go through -o (checkpointed) and -quarantine; otherwise they
// stream to stdout. The output files are removed before it returns.
func runMine(bin, model, dir string, n int, seed int64, workers int, durable bool) (mineRun, error) {
	var r mineRun
	out := filepath.Join(dir, "mine.jsonl")
	quar := filepath.Join(dir, "mine.quarantine.jsonl")
	args := []string{"mine", "-model", model, "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(workers)}
	var stdout firstWrite
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "recipemine"))
	watched := out
	if durable {
		args = append(args, "-o", out, "-quarantine", quar)
	} else {
		cmd.Stdout = &stdout
		watched = ""
	}
	cmd.Args = append(cmd.Args, args...)
	cmd.Stderr = &stderr
	defer func() {
		for _, f := range []string{out, out + ".ckpt", quar} {
			_ = os.Remove(f)
		}
	}()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("recipemine mine: %w", err)
	}
	w := watchMine(cmd.Process.Pid, watched)
	err := cmd.Wait()
	end := time.Now()
	w.stop()
	r.wall, r.peakMB = end.Sub(t0), w.peak
	if err != nil {
		return r, fmt.Errorf("recipemine mine: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var first time.Time
	var lines int
	if len(w.progress) > 0 {
		first, lines = w.progress[0].at, w.progress[0].lines
	}
	r.windows = windowRates(w.progress, mineWindow)
	if durable {
		if r.out, err = os.ReadFile(out); err != nil {
			return r, err
		}
		if r.dropped, err = os.ReadFile(quar); err != nil {
			return r, err
		}
	} else {
		r.out = stdout.buf.Bytes()
		first, lines = stdout.at, stdout.lines
	}
	if !first.IsZero() && end.Sub(first) > 0 {
		r.rate = float64(n-lines) / end.Sub(first).Seconds()
	}
	return r, nil
}

// train writes a bundle with `recipemine train` at its default sizes.
func train(bin, model string) error {
	out, err := exec.Command(filepath.Join(bin, "recipemine"), "train", "-o", model).CombinedOutput()
	if err != nil {
		return fmt.Errorf("recipemine train: %v: %s", err, bytes.TrimSpace(out))
	}
	return nil
}
