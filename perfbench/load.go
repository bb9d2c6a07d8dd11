package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one closed-loop client: a keep-alive HTTP/1.1 connection
// that sends its next request only after the previous response is
// read. It speaks the protocol on the socket itself. net/http's client
// hands each request between three goroutines, which on a machine of
// two vCPUs cost about as much CPU as the server's own handling of a
// single phrase and compete with it for the same cores.
type conn struct {
	host string // host:port of the open connection
	nc   net.Conn
	r    *bufio.Reader
	req  []byte
	buf  []byte
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{}
	}
	return cs
}

func (c *conn) close() {
	if c.nc != nil {
		_ = c.nc.Close()
		c.nc, c.r = nil, nil
	}
}

// post sends body to url ("http://host:port/path") and returns the
// status and the response body, which stays valid until the next post
// on this conn. A nonzero span is sent as the X-Bench-Span header so
// the traced server can link its spans to this request.
func (c *conn) post(url string, body []byte, span int64) (int, []byte, error) {
	host, path, ok := strings.Cut(strings.TrimPrefix(url, "http://"), "/")
	if !ok {
		return 0, nil, fmt.Errorf("bad url %q", url)
	}
	if c.nc != nil && c.host != host {
		c.close()
	}
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", host, 10*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.host, c.nc, c.r = host, nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.req = append(c.req[:0], "POST /"...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, host...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	if span != 0 {
		c.req = append(c.req, "\r\n"+spanHeader+": "...)
		c.req = strconv.AppendInt(c.req, span, 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	_ = c.nc.SetDeadline(time.Now().Add(time.Minute))
	if _, err := c.nc.Write(c.req); err != nil {
		c.close()
		return 0, nil, err
	}
	status, keep, err := c.readResponse()
	if err != nil || !keep {
		c.close()
	}
	return status, c.buf, err
}

// readResponse reads one response into c.buf. It handles the two body
// framings Go's server uses, Content-Length and chunked, and reports
// whether the connection stays open.
func (c *conn) readResponse() (status int, keep bool, err error) {
	line, err := c.line()
	if err != nil {
		return 0, false, err
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	if status, err = strconv.Atoi(code); err != nil || !strings.HasPrefix(proto, "HTTP/1.") {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	keep = proto == "HTTP/1.1"
	length, chunked := -1, false
	for {
		if line, err = c.line(); err != nil {
			return status, false, err
		}
		if line == "" {
			break
		}
		k, v, _ := strings.Cut(line, ":")
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if length, err = strconv.Atoi(v); err != nil {
				return status, false, fmt.Errorf("malformed Content-Length %q", v)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(v, "chunked")
		case "connection":
			keep = keep && !strings.EqualFold(v, "close")
		}
	}
	c.buf = c.buf[:0]
	switch {
	case chunked:
		for {
			if line, err = c.line(); err != nil {
				return status, false, err
			}
			size, _, _ := strings.Cut(line, ";")
			n, err := strconv.ParseInt(strings.TrimSpace(size), 16, 64)
			if err != nil {
				return status, false, fmt.Errorf("malformed chunk size %q", line)
			}
			if n == 0 {
				break
			}
			if err := c.read(int(n)); err != nil {
				return status, false, err
			}
			if line, err = c.line(); err != nil || line != "" {
				return status, false, fmt.Errorf("chunk not ended by CRLF (%v)", err)
			}
		}
		for { // trailer
			if line, err = c.line(); err != nil {
				return status, false, err
			}
			if line == "" {
				return status, keep, nil
			}
		}
	case length >= 0:
		return status, keep, c.read(length)
	default:
		return status, false, errors.New("response has neither Content-Length nor chunked framing")
	}
}

// line reads one CRLF-terminated line without its terminator.
func (c *conn) line() (string, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return string(bytes.TrimSuffix(bytes.TrimSuffix(b, []byte("\n")), []byte("\r"))), nil
}

// read appends the next n bytes of the stream to c.buf.
func (c *conn) read(n int) error {
	c.buf = slices.Grow(c.buf, n)
	_, err := io.ReadFull(c.r, c.buf[len(c.buf):len(c.buf)+n])
	c.buf = c.buf[:len(c.buf)+n]
	return err
}

// phase describes one closed-loop phase: job i posts body(i) to url.
// jobs bounds the job indices (a phase whose pool runs out ends
// early); check validates a response from the worker goroutine.
type phase struct {
	name    string
	url     string
	jobs    int
	weight  int // phrases per job
	windows int // windows per slice; each needs enough samples for a p99
	body    func(i int) []byte
	check   func(i int, status int, body []byte) error
	onSpan  func(i int, span clientSpan) // traced runs only
	spanIDs *atomic.Int64                // traced runs only
}

// clientSpan is the benchmark client's span around one request.
type clientSpan struct {
	id         int64
	start, end int64 // ns since the trace epoch
}

// phaseResult is what one phase measured, over one or more slices.
type phaseResult struct {
	name      string
	sent      int64
	ok        int64
	failed    int64
	next      int // the first job index no slice has taken
	exhausted bool
	dur       time.Duration
	stats     windowStats
	errs      []string // the first few failure reasons
	bytes     int64    // response bytes of successful jobs
}

// merge adds a later slice of the same phase.
func (p *phaseResult) merge(q phaseResult) {
	p.name = q.name
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
	p.next = q.next
	p.exhausted = p.exhausted || q.exhausted
	p.dur += q.dur
	p.stats.rates = append(p.stats.rates, q.stats.rates...)
	p.stats.p50s = append(p.stats.p50s, q.stats.p50s...)
	p.stats.p99s = append(p.stats.p99s, q.stats.p99s...)
	p.stats.steal = append(p.stats.steal, q.stats.steal...)
	p.stats.samples += q.stats.samples
	p.errs = append(p.errs, q.errs...)
	p.bytes += q.bytes
}

// run drives one slice of the phase closed-loop on every conn until
// dur has passed or the jobs run out. Jobs are taken in order from
// first, so warm-up and successive slices share one pool without
// overlap.
func (ph phase) run(conns []*conn, first int, dur time.Duration, epoch time.Time) phaseResult {
	var next atomic.Int64
	next.Store(int64(first))
	var exhausted atomic.Bool
	stolen := startSteal()
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]phaseResult, len(conns))
	samples := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			r := &per[w]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= ph.jobs {
					exhausted.Store(true)
					return
				}
				var span int64
				if ph.spanIDs != nil {
					span = ph.spanIDs.Add(1)
				}
				t0 := time.Now()
				status, body, err := c.post(ph.url, ph.body(i), span)
				t1 := time.Now()
				r.sent++
				if err == nil {
					err = ph.check(i, status, body)
				}
				if err != nil {
					r.failed++
					if len(r.errs) < 3 {
						r.errs = append(r.errs, fmt.Sprintf("job %d: %v", i, err))
					}
					continue
				}
				r.ok++
				r.bytes += int64(len(body))
				samples[w] = append(samples[w], sample{end: t1.Sub(start).Nanoseconds(), lat: t1.Sub(t0).Nanoseconds()})
				if ph.onSpan != nil {
					ph.onSpan(i, clientSpan{id: span, start: t0.Sub(epoch).Nanoseconds(), end: t1.Sub(epoch).Nanoseconds()})
				}
			}
		}(w, c)
	}
	wg.Wait()
	res := phaseResult{name: ph.name, exhausted: exhausted.Load(), dur: dur}
	var all []sample
	for w := range per {
		res.sent += per[w].sent
		res.ok += per[w].ok
		res.failed += per[w].failed
		res.bytes += per[w].bytes
		res.errs = append(res.errs, per[w].errs...)
		all = append(all, samples[w]...)
	}
	if res.exhausted {
		// Only the time the pool lasted was measured.
		res.dur = time.Since(start)
	}
	res.next = first + int(res.sent)
	res.stats.add(all, res.dur, ph.windows, ph.weight, stolen.share())
	return res
}

// sendAll posts jobs [0, n) once each, spread over the conns, and
// stops at the first failure (used for untimed warm-up).
func (ph phase) sendAll(conns []*conn, n int) error {
	var next atomic.Int64
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				status, body, err := c.post(ph.url, ph.body(i), 0)
				if err == nil {
					err = ph.check(i, status, body)
				}
				if err != nil {
					errs[w] = fmt.Errorf("%s warm-up job %d: %w", ph.name, i, err)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
