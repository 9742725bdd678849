package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one client connection to the daemon: its own transport with a
// single keep-alive connection, so a phase with n conns opens exactly n.
type conn struct {
	base string
	hc   *http.Client
}

func newConns(base string, n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = &conn{base: base, hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and reads the whole response. keep asks for the
// body back; otherwise it is drained and dropped.
func (c *conn) do(ctx context.Context, method, path string, body []byte, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// wrapResult is the outcome of one POST /v1/wrap.
type wrapResult struct {
	src    *source
	status int
	ms     float64
	err    error
}

// wrapPass wraps every source once, the connections taking sources in
// corpus order. With fresh set, each wrap is preceded by a DELETE of its
// key, so the daemon infers from scratch instead of answering from its
// wrapper cache. It returns the results in corpus order and the pass's
// wall time.
func wrapPass(ctx context.Context, cs []*conn, srcs []*source, fresh bool) ([]wrapResult, time.Duration, error) {
	out := make([]wrapResult, len(srcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, len(cs))
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				r, err := wrapOne(ctx, c, srcs[i], fresh)
				if err != nil {
					errc <- err
					return
				}
				out[i] = r
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	if err := <-errc; err != nil {
		return nil, 0, err
	}
	return out, elapsed, nil
}

// wrapOne registers one source and times the wrap alone.
func wrapOne(ctx context.Context, c *conn, src *source, fresh bool) (wrapResult, error) {
	if fresh {
		status, _, err := c.do(ctx, http.MethodDelete, "/v1/sources/"+src.key, nil, false)
		if err != nil {
			return wrapResult{}, fmt.Errorf("DELETE %s: %w", src.key, err)
		}
		if status != http.StatusNoContent && status != http.StatusNotFound {
			return wrapResult{}, fmt.Errorf("DELETE %s: HTTP %d", src.key, status)
		}
	}
	t0 := time.Now()
	status, _, err := c.do(ctx, http.MethodPost, "/v1/wrap", src.wrapBody, false)
	return wrapResult{src: src, status: status, ms: msSince(t0), err: err}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// sample is one completed extract request.
type sample struct {
	req    request
	at     time.Duration // offset in the phase: completion (closed loop) or due time (open loop)
	ms     float64       // latency: from send (closed loop) or from due (open loop)
	lateMs float64       // open loop: how late the generator sent a request due on an idle connection
	idle   bool          // open loop: the connection was idle when the request fell due
	status int
	body   []byte // kept for the oracle sample only
	err    error
}

// closedLoop replays reqs on every connection back to back — each
// connection sends its next request as soon as the previous one
// completes — until d has elapsed, cycling through reqs. keep selects,
// by position in the sequence sent, the responses whose bodies are kept.
// It returns the samples and when the phase started.
func closedLoop(ctx context.Context, cs []*conn, reqs []request, d time.Duration, keep func(i int) bool) ([]sample, time.Time) {
	per := make([][]sample, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for time.Now().Before(end) {
				n := int(next.Add(1) - 1)
				req := reqs[n%len(reqs)]
				t0 := time.Now()
				status, body, err := c.do(ctx, http.MethodPost, "/v1/extract", req.body, keep(n))
				per[ci] = append(per[ci], sample{req: req, at: time.Since(start), ms: msSince(t0),
					status: status, body: body, err: err})
			}
		}(ci, c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, start
}

// openLoop sends reqs on a fixed schedule — request k falls due at
// start + k/rate, whatever happened to earlier requests — spread round
// robin over the connections, for d. A request due while its connection
// is still busy waits for it, and its latency counts from when it was
// due, so a stall is charged to every request it delays. It returns the
// samples and when the phase started.
func openLoop(ctx context.Context, cs []*conn, reqs []request, rate float64, d time.Duration, keep func(i int) bool) ([]sample, time.Time) {
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	n := int(rate * d.Seconds())
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			free := start
			for k := ci; k < n; k += len(cs) {
				at := time.Duration(float64(k) / rate * float64(time.Second))
				due := start.Add(at)
				idle := !free.After(due)
				sleepUntil(due)
				sent := time.Now()
				req := reqs[k%len(reqs)]
				status, body, err := c.do(ctx, http.MethodPost, "/v1/extract", req.body, keep(k))
				free = time.Now()
				s := sample{req: req, at: at, ms: float64(free.Sub(due)) / float64(time.Millisecond),
					idle: idle, status: status, body: body, err: err}
				if idle {
					s.lateMs = float64(sent.Sub(due)) / float64(time.Millisecond)
				}
				per[ci] = append(per[ci], s)
			}
		}(ci, c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, start
}

// lag summarizes how late an open-loop generator sent its requests.
// Only requests that fell due on an idle connection count: one due while
// its connection was still busy waits for the daemon, and that wait is
// the daemon's latency, not the generator's lateness.
type lag struct {
	p50, p99  float64 // ms late, over requests due on an idle connection
	idleShare float64 // share of requests that fell due on an idle connection
	samples   int
}

func generatorLag(ss []sample) lag {
	var late []float64
	for _, s := range ss {
		if s.idle {
			late = append(late, s.lateMs)
		}
	}
	l := lag{samples: len(late)}
	if len(ss) > 0 {
		l.idleShare = float64(len(late)) / float64(len(ss))
	}
	l.p50, _ = percentile(late, 0.5)
	l.p99, _ = percentile(late, 0.99)
	return l
}

// check reports whether the generator kept its schedule: a run whose
// generator was late, for the typical request, by a sizeable share of
// the interval between one connection's requests measured the load
// generator,
// not the daemon. The tail of the lateness is reported, not judged: on
// a shared machine a few late wake-ups are the machine's, and the
// latency from due charges them to the run either way.
func (l lag) check(rate float64, conns int) error {
	interval := 1000 * float64(conns) / rate // ms between one connection's requests
	switch {
	case l.samples == 0:
		return fmt.Errorf("open loop: no request fell due on an idle connection; the phase was saturated, not open")
	case l.p50 > interval/4:
		return fmt.Errorf("open loop generator fell behind: median lateness %.3f ms against a %.3f ms interval", l.p50, interval)
	}
	return nil
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// The runtime's own timers wake idle processes through the network
// poller at millisecond granularity, which would make the generator up
// to a millisecond late on every request it sends on an idle connection.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
		// EINTR: sleep for what is left.
	}
}

// windows groups the latencies of a phase's successful samples into
// consecutive windows of length w by their offset in the phase, dropping
// the samples past the last whole window of the phase's length d.
func windows(ss []sample, w, d time.Duration) [][]float64 {
	n := int(d / w)
	out := make([][]float64, n)
	for _, s := range ss {
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		if i := int(s.at / w); i < n {
			out[i] = append(out[i], s.ms)
		}
	}
	return out
}

// chunks groups the latencies of a phase's successful samples, in the
// order of their offsets in the phase, into consecutive runs of n. The
// last run takes the remainder, so every sample counts and every run
// holds at least n — or all of them, when the phase completed fewer.
// Cut by count, not by time, each run's tail rests on the same number of
// samples however far the host slowed the phase.
func chunks(ss []sample, n int) [][]float64 {
	ok := make([]sample, 0, len(ss))
	for _, s := range ss {
		if s.err == nil && s.status == http.StatusOK {
			ok = append(ok, s)
		}
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].at < ok[j].at })
	out := [][]float64{nil}
	for _, s := range ok {
		last := len(out) - 1
		if len(out[last]) == n && len(ok)-n*len(out) >= n {
			out = append(out, nil)
			last++
		}
		out[last] = append(out[last], s.ms)
	}
	return out
}

// pooled concatenates the windows.
func pooled(ws [][]float64) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w...)
	}
	return out
}
