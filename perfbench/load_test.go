package main

import (
	"testing"
	"time"
)

func TestGeneratorLagCountsOnlyIdleConnections(t *testing.T) {
	ss := []sample{
		{idle: true, lateMs: 0.1},
		{idle: true, lateMs: 0.1},
		{idle: true, lateMs: 0.3},
		{idle: false, lateMs: 0}, // due while the connection was busy: the daemon's wait
	}
	l := generatorLag(ss)
	if l.samples != 3 || l.idleShare != 0.75 || l.p50 != 0.1 {
		t.Errorf("lag = %+v; want 3 samples, idle share 0.75, p50 0.1", l)
	}
}

func TestLagCheck(t *testing.T) {
	// 1000 req/s over 2 connections: 2 ms between one connection's requests.
	for _, c := range []struct {
		l  lag
		ok bool
	}{
		{lag{p50: 0.07, p99: 1.1, samples: 100}, true},
		{lag{p50: 0.6, p99: 1.1, samples: 100}, false},
		{lag{p50: 0.07, p99: 4.5, samples: 100}, true},
		{lag{samples: 0}, false},
	} {
		if err := c.l.check(1000, 2); (err == nil) != c.ok {
			t.Errorf("check(%+v) = %v, want ok=%v", c.l, err, c.ok)
		}
	}
}

func TestWindowsSplitByOffset(t *testing.T) {
	var ss []sample
	for i := 0; i < 35; i++ {
		// 10 samples per second for 3.5 s; latency = the second it fell in.
		ss = append(ss, sample{at: time.Duration(i) * 100 * time.Millisecond, ms: float64(i / 10), status: 200})
	}
	ss = append(ss, sample{at: 500 * time.Millisecond, ms: 99, status: 500}) // failed: not a latency
	ws := windows(ss, time.Second, 3500*time.Millisecond)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3 whole ones (the last half second dropped)", len(ws))
	}
	for i, w := range ws {
		if len(w) != 10 || w[0] != float64(i) {
			t.Errorf("window %d = %v", i, w)
		}
	}
	if got := pooled(ws); len(got) != 30 || got[0] != 0 || got[29] != 2 {
		t.Errorf("pooled windows = %v", got)
	}
}

func TestChunksCutByCount(t *testing.T) {
	var ss []sample
	for i := 0; i < 25; i++ {
		// Completion offsets out of order, as two connections append them.
		at := time.Duration((i*7)%25) * time.Millisecond
		ss = append(ss, sample{at: at, ms: float64(at / time.Millisecond), status: 200})
	}
	ss = append(ss, sample{at: 3 * time.Millisecond, ms: 99, status: 429}) // failed: not a latency
	cs := chunks(ss, 10)
	if len(cs) != 2 || len(cs[0]) != 10 || len(cs[1]) != 15 {
		t.Fatalf("chunks of 10 over 25 samples: sizes %d, want [10 15] (the remainder joins the last)", len(cs))
	}
	for i, c := range cs {
		for j, v := range c {
			if want := float64(10*i + j); v != want {
				t.Errorf("chunk %d[%d] = %v, want %v: not in phase order", i, j, v, want)
			}
		}
	}
	if cs := chunks(ss[:5], 10); len(cs) != 1 || len(cs[0]) != 5 {
		t.Errorf("5 samples in chunks of 10 = %v, want one chunk of all 5", cs)
	}
}
