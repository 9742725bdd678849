package main

import (
	"net/http"
	"testing"
	"time"
)

// A shed or failed request is left out of the latencies, so it must fail
// the run: otherwise a daemon that turned its slowest requests away
// would report a lower p99 and pass.
func TestShedRequestFailsTheRun(t *testing.T) {
	sp := &spec{}
	var ss []sample
	for i := 0; i < 2000; i++ {
		ss = append(ss, sample{at: time.Duration(i) * time.Millisecond, ms: 1, status: http.StatusOK})
	}
	ss[1999].ms = 50
	ss = append(ss, sample{at: 1500 * time.Millisecond, ms: 80, status: http.StatusTooManyRequests})
	res := newResult(sp)
	(&session{}).extractOutcomes(ss, res)
	if res.Correct || res.Failed != 1 || res.Attempted != 2001 {
		t.Errorf("after a 429: correct=%v failed=%d attempted=%d; want false, 1, 2001", res.Correct, res.Failed, res.Attempted)
	}
}

func TestBlockP50IsTheMedianOverRuns(t *testing.T) {
	// Runs of latencyRun requests: base, with their slowest 15% at slow.
	var ss []sample
	run := func(base, slow float64) {
		for i := 0; i < latencyRun; i++ {
			ms := base
			if i%100 < 15 {
				ms = slow
			}
			ss = append(ss, sample{at: time.Duration(len(ss)) * time.Millisecond, ms: ms, status: http.StatusOK})
		}
	}
	// Five runs; one disturbed. Every run counts, and the median over
	// them is the typical run's.
	run(1, 5)
	run(1, 5)
	run(9, 90)
	run(1, 5)
	run(1, 5)
	b, err := summarizeBlock(ss, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if b.p50 != 1 || len(b.p50s) != 5 || b.p50s[2] != 9 {
		t.Errorf("p50 %v over runs %v, want 1 over 5 runs with the third at 9", b.p50, b.p50s)
	}
	if b.samples != 5*latencyRun || b.rps != float64(latencyRun) {
		t.Errorf("samples %d rps %v, want %d and %d", b.samples, b.rps, 5*latencyRun, latencyRun)
	}
	// A block too short for its median fails.
	if _, err := summarizeBlock(ss[:15], time.Second); err == nil {
		t.Error("p50 over 15 samples (7 beyond it) reported")
	}
}

func TestReportExtractTakesTheMedianOverBlocks(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "extract_p50_ms", Unit: "ms"}, {Name: "extract_cpu_ms", Unit: "ms"}}}
	res := newResult(sp)
	// One block disturbed throughout: it moves neither figure.
	blocks := []blockStats{
		{p50: 0.55, cpu: 0.6},
		{p50: 0.95, cpu: 0.9},
		{p50: 0.58, cpu: 0.62},
	}
	if err := reportExtract(res, blocks); err != nil {
		t.Fatal(err)
	}
	if p50, cpu := res.Metrics["extract_p50_ms"].Value, res.Metrics["extract_cpu_ms"].Value; p50 != 0.58 || cpu != 0.62 {
		t.Errorf("p50 %v cpu %v, want 0.58 and 0.62", p50, cpu)
	}
	if err := reportExtract(res, nil); err == nil {
		t.Error("extract metrics reported without a block")
	}
}

func TestReportWraps(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "wrap_per_s"}, {Name: "wrap_p50_ms"}, {Name: "wrap_p90_ms"}, {Name: "wrap_cpu_s"}}}
	res := newResult(sp)
	if err := reportWraps(res, []float64{100, 200, 300, 400}, 2*time.Second, 3); err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["wrap_per_s"].Value; got != 2 {
		t.Errorf("wrap_per_s %v, want 4 wraps / 2 s", got)
	}
	if got := res.Metrics["wrap_p50_ms"].Value; got != 250 {
		t.Errorf("wrap_p50_ms %v, want 250", got)
	}
	if got := res.Metrics["wrap_cpu_s"].Value; got != 0.75 {
		t.Errorf("wrap_cpu_s %v, want 3 CPU s / 4 wraps", got)
	}
}
