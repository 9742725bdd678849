package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// serveOpenRate is the rate of serve_hot's open-loop phase, fixed so
// that every commit is measured at the same offered load: about a
// quarter of the extract rate the daemon sustained on 2 CPUs, closed
// loop on two connections, when the benchmark was written.
//
// The open loop's latencies go into the run's record, not into its
// metrics. Timed from when each request was due, they charge every
// request queued behind a stall with the stall, and on a shared machine
// the host's own stalls of a few to tens of milliseconds dominate them:
// on 2 vCPUs, p99 across runs of the same code spread by 0.5–2.5 times
// its median, and p90 by as much, past any bound BENCHMARK.json may set.
// The closed loop, where a stall delays only the requests in flight,
// gives the extract metrics.
const serveOpenRate = 600.0

// setupStarts is how many times each run starts the daemon to time its
// start-up; the last start serves the workload. A start takes a few
// milliseconds, so the median of many is what keeps setup_s steady.
const setupStarts = 21

// oracleSample is the number of wrapped sources whose responses are
// checked against the tree-path oracle, and oracleBodies the cap on kept
// responses per phase.
const (
	oracleSample = 3
	oracleBodies = 64
)

// minBeyond is the sample count a tail percentile must rest on, in every
// window it is taken over.
const minBeyond = 10

// latencyRun is the number of consecutive requests each block's median
// latency is taken over.
const latencyRun = 1000

// blockWarmup is the closed loop each extract block runs, unmeasured,
// before it starts timing.
const blockWarmup = 250 * time.Millisecond

type workloadFunc func(ctx context.Context, cfg config, set [][]*source, res *result) error

var workloads = map[string]workloadFunc{
	"wrap_cold": wrapCold,
	"serve_hot": serveHot,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// session is one run's daemon and its connections, after set-up.
type session struct {
	d       *daemon
	cs      []*conn
	starts  []float64 // seconds from exec to healthy, per start
	cache   bodyCache
	wrapped []*source
	kept    []sample // responses kept for the oracle check
	sample  map[*source]bool
}

// startSession starts the daemon setupStarts times, timing each start,
// and keeps the last one running.
func startSession(ctx context.Context, cfg config, res *result) (*session, error) {
	s := &session{cache: make(bodyCache)}
	for i := 0; i < setupStarts; i++ {
		d, dt, err := startDaemon(cfg.daemon)
		if err != nil {
			return nil, err
		}
		s.starts = append(s.starts, dt.Seconds())
		if i < setupStarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			continue
		}
		s.d = d
	}
	sh, err := measureShape(ctx, s.d)
	if err != nil {
		s.d.stop()
		return nil, fmt.Errorf("machine shape: %w", err)
	}
	res.Shape = sh
	s.cs = newConns(s.d.base, runtime.NumCPU())
	return s, nil
}

func (s *session) close() {
	closeConns(s.cs)
	_ = s.d.stop()
}

func (s *session) startMedian() float64 {
	m, _ := median(s.starts)
	return m
}

// pass is one wrap pass: the wraps, the wall time they took and the
// daemon CPU seconds they used.
type pass struct {
	rs   []wrapResult
	wall time.Duration
	cpu  float64
}

// wraps wraps srcs once, one queue the connections take in order, and
// records the share of the machine the host stole meanwhile under name.
func (s *session) wraps(ctx context.Context, srcs []*source, fresh bool, name string, res *result) (pass, error) {
	cpu0, err := cpuSeconds(s.d.pid())
	if err != nil {
		return pass{}, err
	}
	st0 := startSteal()
	rs, wall, err := wrapPass(ctx, s.cs, srcs, fresh)
	if err != nil {
		return pass{}, err
	}
	res.Details[name+"_steal_share"] = st0.share()
	cpu1, err := cpuSeconds(s.d.pid())
	if err != nil {
		return pass{}, err
	}
	res.Attempted += len(rs)
	_, _, failed := outcomes(rs)
	res.failures(failed, "wraps")
	return pass{rs, wall, cpu1 - cpu0}, nil
}

// settleWraps checks the discard set of all the run's wraps, records the
// wrapped sources, and reports the wrap metrics.
func (s *session) settleWraps(srcs []*source, ps []pass, res *result) error {
	var rs []wrapResult
	var wall time.Duration
	cpu := 0.0
	for _, p := range ps {
		rs = append(rs, p.rs...)
		wall += p.wall
		cpu += p.cpu
	}
	wrapped, discarded, _ := outcomes(rs)
	if err := checkDiscards(srcs, discarded); err != nil {
		res.fail("%v", err)
	}
	s.wrapped = wrapped
	res.Details["discarded"] = discarded
	ms := make([]float64, len(rs))
	for i, r := range rs {
		ms[i] = r.ms
	}
	return reportWraps(res, ms, wall, cpu)
}

// keepFor returns the keep predicate of a phase over reqs: responses for
// the oracle's sources, at most oracleBodies of them, are kept.
func (s *session) keepFor(reqs []request) func(i int) bool {
	quota := make([]bool, len(reqs))
	n := 0
	for i, r := range reqs {
		if s.sample[r.src] && n < oracleBodies {
			quota[i] = true
			n++
		}
	}
	return func(i int) bool { return i < len(quota) && quota[i] }
}

// extractOutcomes counts a phase's requests and failures on the run and
// keeps the bodies picked for the oracle. Any failure — a transport
// error or any status but 200, 429 sheds and 5xx included — fails the
// run: windows leaves failed requests out of the latencies, so a daemon
// that turned slow requests away must not pass as a faster one.
func (s *session) extractOutcomes(samples []sample, res *result) {
	failed := 0
	for _, x := range samples {
		res.Attempted++
		if x.err != nil || x.status != http.StatusOK {
			failed++
			continue
		}
		if x.body != nil {
			s.kept = append(s.kept, x)
		}
	}
	res.failures(failed, "extract requests")
}

// closedConns is the number of connections a closed extract block runs
// on. One: the daemon then handles one request at a time, and the
// machine's other CPU takes the driver's own work, the daemon's garbage
// collector and whatever else wakes up. On two connections the daemon
// and the driver kept both of a 2-vCPU machine's CPUs busy, so every
// request queued for a CPU and any CPU the host took away went straight
// into the figures: in two sets of ten runs of the same code the
// quartile spread of the request rate reached 0.28 (serve_hot) and 0.53
// (wrap_cold) of its median, and that of p90 0.33 and 0.94.
const closedConns = 1

// blockStats are one closed extract block's figures.
type blockStats struct {
	p50     float64   // median over the block's runs of latencyRun requests of each run's median, ms
	p50s    []float64 // those medians
	cpu     float64   // daemon CPU per request, ms
	rps     float64   // requests completed per second
	p90     float64   // over the whole block, ms
	p99     float64
	samples int
}

// summarizeBlock computes a block's latency figures from its samples; d
// is its length. Failed requests are left out (extractOutcomes fails the
// run for them).
func summarizeBlock(ss []sample, d time.Duration) (blockStats, error) {
	ws := chunks(ss, latencyRun)
	p50, p50s, err := medianOverWindows(ws, 0.5)
	if err != nil {
		return blockStats{}, err
	}
	all := pooled(ws)
	b := blockStats{p50: p50, p50s: p50s, samples: len(all), rps: float64(len(all)) / d.Seconds()}
	b.p90, _ = tail(all, 0.9, minBeyond)
	b.p99, _ = tail(all, 0.99, minBeyond)
	return b, nil
}

// closedBlock runs a closed loop of reqs on closedConns connections: an
// unmeasured warm-up of blockWarmup, then d timed. It records the
// block's figures in the run's details under name.
func (s *session) closedBlock(ctx context.Context, reqs []request, d time.Duration, name string, res *result) (blockStats, error) {
	cs := s.cs[:closedConns]
	warm, _ := closedLoop(ctx, cs, reqs, blockWarmup, func(int) bool { return false })
	s.extractOutcomes(warm, res)
	cpu0, err := cpuSeconds(s.d.pid())
	if err != nil {
		return blockStats{}, err
	}
	st0 := startSteal()
	ss, _ := closedLoop(ctx, cs, reqs, d, s.keepFor(reqs))
	steal := st0.share()
	cpu1, err := cpuSeconds(s.d.pid())
	if err != nil {
		return blockStats{}, err
	}
	s.extractOutcomes(ss, res)
	b, err := summarizeBlock(ss, d)
	if err != nil {
		return blockStats{}, fmt.Errorf("%s: %w", name, err)
	}
	b.cpu = 1000 * (cpu1 - cpu0) / float64(len(ss))
	res.Details[name] = map[string]any{
		"steal_share": steal, "requests": len(ss), "rps": b.rps, "cpu_ms": b.cpu,
		"p50_ms": b.p50, "p50_ms_by_run": b.p50s, "p90_ms": b.p90, "p99_ms": b.p99,
	}
	return b, nil
}

// reportExtract sets extract_p50_ms and extract_cpu_ms, the medians over
// the blocks of their median latency and of the daemon's CPU per
// request. The blocks replay the same requests some 15 seconds apart, so a change
// to the program moves every block, while the host's neighbours come and
// go in episodes of tens of seconds: on 2 vCPUs, 1 s slices that lost
// 5–20% of the machine to steal (a fifth to a third of them, in episodes
// of 20–60 s every few minutes) read the median latency 23% and the
// daemon's CPU per request 16% above calm ones, and two-connection loops
// and loops beside a process that kept both CPUs from idling no less. A
// run measured in one stretch is moved that far whenever an episode
// covers it, and three runs in ten so caught move the quartile spread
// past the bound; spread over three blocks, a run's figure moves only
// when an episode covers two of them. The lowest block instead of the
// median spread further (0.13 against 0.07–0.08 of the median, six
// seeds): the blocks differ by more than the host moves them, the first,
// with a third of the wrappers registered, reading lowest.
//
// The blocks' request rate and tail go into the run's record, not its
// metrics: on one connection the rate is the inverse of the mean
// latency and says nothing the latencies do not, and rate and tail move
// with the host twice as far as the median does (the rate by 38% and
// the p90 by up to 45% in the slices above).
func reportExtract(res *result, blocks []blockStats) error {
	var p50s, cpus []float64
	for _, b := range blocks {
		p50s = append(p50s, b.p50)
		cpus = append(cpus, b.cpu)
	}
	p50, err := median(p50s)
	if err != nil {
		return fmt.Errorf("extract_p50_ms: %w", err)
	}
	cpu, err := median(cpus)
	if err != nil {
		return fmt.Errorf("extract_cpu_ms: %w", err)
	}
	res.set("extract_p50_ms", p50)
	res.set("extract_cpu_ms", cpu)
	return nil
}

// quality runs the quality pass over every page of srcs and reports
// Pc and Pp.
func (s *session) quality(ctx context.Context, srcs []*source, res *result) (*qualityRun, error) {
	qr, err := qualityPass(ctx, s.cs, srcs, s.wrapped, s.cache)
	if err != nil {
		return nil, err
	}
	res.Attempted += qr.requests
	res.failures(qr.failed, "quality-pass requests")
	res.set("quality_pc", qr.q.pc())
	res.set("quality_pp", qr.q.pp())
	res.Details["golden_objects"] = qr.q.no
	res.Details["quality_requests"] = qr.requests
	return qr, nil
}

// finish runs the oracle comparison every workload ends with and records
// the daemon's peak RSS.
func (s *session) finish(ctx context.Context, qr *qualityRun, res *result) error {
	rss, err := peakRSSMB(s.d.pid())
	if err != nil {
		return err
	}
	res.set("rss_mb", rss)
	// The oracle: the seeded sample of sources, inferred in-process,
	// checked against the kept responses of the measured phases and
	// against the quality pass's responses for those sources.
	var sample []*source
	for _, src := range s.wrapped {
		if s.sample[src] {
			sample = append(sample, src)
		}
	}
	orc, err := newOracle(ctx, sample)
	if err != nil {
		res.fail("%v", err)
		return nil
	}
	checked, mismatched := 0, 0
	check := func(src *source, pages []string, body []byte) {
		checked++
		if err := orc.check(ctx, src, pages, body); err != nil {
			mismatched++
			if mismatched <= 3 {
				res.fail("%v", err)
			}
		}
	}
	for _, x := range s.kept {
		check(x.req.src, x.req.pages, x.body)
	}
	for _, src := range sample {
		for p, body := range qr.bodies[src] {
			if body != nil {
				check(src, src.pages[p:p+1], body)
			}
		}
	}
	res.Attempted += checked
	res.Failed += mismatched
	if mismatched > 3 {
		res.fail("%d responses in all differ from the oracle", mismatched)
	}
	names := make([]string, len(sample))
	for i, src := range sample {
		names[i] = src.key
	}
	res.Details["oracle_sources"] = names
	res.Details["oracle_checked"] = checked
	return nil
}

// medianOverWindows is the median over the windows ws of each window's
// q-quantile, and those quantiles.
func medianOverWindows(ws [][]float64, q float64) (float64, []float64, error) {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		v, err := tail(w, q, minBeyond)
		if err != nil {
			return 0, nil, fmt.Errorf("window %d: %w", i, err)
		}
		vs[i] = v
	}
	m, err := median(vs)
	return m, vs, err
}

// reportWraps sets the wrap metrics from a set of wrap latencies, the
// wall time they took and the daemon CPU seconds they used.
func reportWraps(res *result, ms []float64, wall time.Duration, cpu float64) error {
	p50, err := median(ms)
	if err != nil {
		return fmt.Errorf("wrap latency: %w", err)
	}
	// p90, not p99: a run wraps 3×49 sources (see README.md).
	p90, err := percentile(ms, 0.9)
	if err != nil {
		return err
	}
	res.set("wrap_per_s", float64(len(ms))/wall.Seconds())
	res.set("wrap_cpu_s", cpu/float64(len(ms)))
	res.set("wrap_p50_ms", p50)
	res.set("wrap_p90_ms", p90)
	res.Details["wrap_samples"] = len(ms)
	return nil
}

// measure is the run both workloads share. It wraps the corpora one
// after another, running an extract block after each of the first ones
// — all blocks replay one request mix over the first corpus's wrapped
// sources — then runs between (serve_hot's open loop), the quality pass
// and a last extract block, and reports the wrap, extract and quality
// metrics. With fresh set every wrap is preceded by a DELETE of its key.
// It returns the wraps' wall time.
func (s *session) measure(ctx context.Context, cfg config, set [][]*source, fresh bool, between func() error, res *result) (time.Duration, error) {
	blockLen := time.Duration(cfg.seconds) * time.Second * 3 / 16
	var (
		srcs   []*source
		passes []pass
		blocks []blockStats
		reqs   []request
	)
	for i, corpus := range set {
		srcs = append(srcs, corpus...)
		p, err := s.wraps(ctx, corpus, fresh, fmt.Sprintf("wraps%d", i), res)
		if err != nil {
			return 0, err
		}
		passes = append(passes, p)
		if i == 0 {
			wrapped, _, _ := outcomes(p.rs)
			// The sources the blocks draw from hold the oracle's sample,
			// so each block's kept responses are checked.
			s.sample = make(map[*source]bool)
			for _, src := range oracleSources(cfg.seed, wrapped, oracleSample) {
				s.sample[src] = true
			}
			if reqs, err = requestMix(cfg.seed, "closed", wrapped, 1<<14, s.cache); err != nil {
				return 0, err
			}
		}
		if i == len(set)-1 {
			break
		}
		b, err := s.closedBlock(ctx, reqs, blockLen, fmt.Sprintf("block%d", len(blocks)), res)
		if err != nil {
			return 0, err
		}
		blocks = append(blocks, b)
	}
	if err := s.settleWraps(srcs, passes, res); err != nil {
		return 0, err
	}
	if between != nil {
		if err := between(); err != nil {
			return 0, err
		}
	}
	qr, err := s.quality(ctx, srcs, res)
	if err != nil {
		return 0, err
	}
	b, err := s.closedBlock(ctx, reqs, blockLen, fmt.Sprintf("block%d", len(blocks)), res)
	if err != nil {
		return 0, err
	}
	if err := reportExtract(res, append(blocks, b)); err != nil {
		return 0, err
	}
	var wall time.Duration
	for _, p := range passes {
		wall += p.wall
	}
	return wall, s.finish(ctx, qr, res)
}

// wrapCold: every wrap infers from scratch. Two connections take the
// sources of the run's corpora in order and send DELETE
// /v1/sources/{key} then POST /v1/wrap for each; the extract blocks
// (see measure) give the extract metrics.
func wrapCold(ctx context.Context, cfg config, set [][]*source, res *result) error {
	s, err := startSession(ctx, cfg, res)
	if err != nil {
		return err
	}
	defer s.close()
	res.set("setup_s", s.startMedian())
	_, err = s.measure(ctx, cfg, set, true, nil, res)
	return err
}

// serveHot: registering every source is the set-up, and its wraps give
// the wrap metrics; the extract blocks (see measure) and an open-loop
// phase at serveOpenRate for a quarter of --seconds send POST
// /v1/extract with pagesPerRequest consecutive pages from a seeded
// random window.
func serveHot(ctx context.Context, cfg config, set [][]*source, res *result) error {
	s, err := startSession(ctx, cfg, res)
	if err != nil {
		return err
	}
	defer s.close()
	open := func() error {
		reqs, err := requestMix(cfg.seed, "open", s.wrapped, 1<<14, s.cache)
		if err != nil {
			return err
		}
		s.openPhase(ctx, reqs, serveOpenRate, time.Duration(cfg.seconds)*time.Second/4, res)
		return nil
	}
	wall, err := s.measure(ctx, cfg, set, false, open, res)
	if err != nil {
		return err
	}
	res.set("setup_s", s.startMedian()+wall.Seconds())
	return nil
}

// openPhase runs an open-loop phase at rate for d and records, in the
// run's details, its latency from due (see serveOpenRate), how late the
// generator ran and perfbench's CPU share. When the generator could not
// keep its schedule, the phase's latencies describe the generator, not
// the daemon: they are marked invalid instead of recorded.
func (s *session) openPhase(ctx context.Context, reqs []request, rate float64, d time.Duration, res *result) {
	drv0, _ := cpuSeconds(0)
	st0 := startSteal()
	open, start := openLoop(ctx, s.cs, reqs, rate, d, s.keepFor(reqs))
	res.Details["open_steal_share"] = st0.share()
	wall := time.Since(start)
	drv1, _ := cpuSeconds(0)
	s.extractOutcomes(open, res)
	lag := generatorLag(open)
	res.Details["open_requests"] = len(open)
	res.Details["open_rate"] = rate
	res.Details["generator_late_p50_ms"] = lag.p50
	res.Details["generator_late_p99_ms"] = lag.p99
	res.Details["generator_idle_share"] = lag.idleShare
	res.Details["driver_cpu_share"] = (drv1 - drv0) / (wall.Seconds() * float64(runtime.NumCPU()))
	if err := lag.check(rate, len(s.cs)); err != nil {
		res.Details["open_invalid"] = err.Error()
		return
	}
	ms := pooled(windows(open, d, d))
	for _, p := range []struct {
		name string
		q    float64
	}{{"open_p50_ms", 0.5}, {"open_p99_ms", 0.99}} {
		v, err := tail(ms, p.q, minBeyond)
		if err != nil {
			res.Details["open_invalid"] = err.Error()
			return
		}
		res.Details[p.name] = v
	}
}
