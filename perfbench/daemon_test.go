package main

import "testing"

func TestCountCPUList(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 1, true}, {"0-1", 2, true}, {"0-3,8,10-11", 7, true},
		{"", 0, false}, {"3-1", 0, false}, {"a-b", 0, false},
	} {
		got, err := countCPUList(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("countCPUList(%q) = %d, %v; want %d ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
