package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one objectrunnerd process started by perfbench.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// startDaemon starts objectrunnerd with its shipped defaults, on an
// ephemeral loopback port, and returns once /healthz answers 200 —
// together with how long that took from the exec.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// Should perfbench die, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		// The daemon's contract: "listening on <addr>" on stderr. Keep
		// draining afterwards so the daemon never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- addr
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, 0, fmt.Errorf("daemon exited before listening")
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("daemon did not report its address within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM — the daemon's graceful drain — and waits for the
// process to exit, killing it if the drain overruns.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("daemon did not drain within 20s; killed")
	}
}

// cpuSeconds returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (pid 0 means this process).
func cpuSeconds(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ")".
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	f := strings.Fields(string(b[i+1:]))
	// After ")": state is field 3, utime field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: too few fields", path)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTicks = 100

// procStatus returns one field of /proc/<pid>/status, e.g. "VmHWM".
func procStatus(pid int, field string) (string, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %s", path, field)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpusAllowed counts the CPUs in a process's affinity mask — what the Go
// runtime of that process resolves GOMAXPROCS (and so the daemon's
// default -workers 0) to when GOMAXPROCS is not set.
func cpusAllowed(pid int) (int, error) {
	v, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	return countCPUList(v)
}

// countCPUList counts the CPUs of a kernel CPU list such as "0-3,8,10-11".
func countCPUList(v string) (int, error) {
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("CPU list %q: %w", v, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("CPU list %q: %w", v, err)
			}
		}
		if b < a {
			return 0, fmt.Errorf("CPU list %q: range %s", v, part)
		}
		n += b - a + 1
	}
	return n, nil
}

// shape is the machine shape a result was measured on. Results of
// different shapes are not comparable.
type shape struct {
	NumCPU           int    `json:"nproc"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	DaemonWorkers    int    `json:"daemon_workers"`
	GoVersion        string `json:"go_version"`
}

// measureShape records the shape of this run: perfbench's own view and
// the daemon's, read from the daemon process and its /metrics.
func measureShape(ctx context.Context, d *daemon) (shape, error) {
	sh := shape{
		NumCPU:           runtime.NumCPU(),
		DriverGOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	procs := 0
	if v, ok := os.LookupEnv("GOMAXPROCS"); ok {
		// The daemon inherits this process's environment.
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			procs = n
		}
	}
	if procs == 0 {
		n, err := cpusAllowed(d.pid())
		if err != nil {
			return sh, err
		}
		procs = n
	}
	sh.DaemonGOMAXPROCS = procs
	// The daemon runs with -workers 0: one pipeline worker per GOMAXPROCS.
	sh.DaemonWorkers = procs
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return sh, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return sh, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return sh, fmt.Errorf("decode /metrics: %w", err)
	}
	sh.GoVersion = m.Build.GoVersion
	if sh.GoVersion != runtime.Version() {
		return sh, fmt.Errorf("daemon built with %s, perfbench with %s", sh.GoVersion, runtime.Version())
	}
	return sh, nil
}

// stealReading is the machine's stolen and total CPU ticks from
// /proc/stat at the start of a phase.
type stealReading struct {
	steal, total float64
	ok           bool
}

func startSteal() stealReading {
	steal, total, err := stealTicks()
	return stealReading{steal, total, err == nil}
}

// share is the share of the machine's CPU the host stole since the
// reading was taken, or -1 when /proc/stat could not be read. On a
// virtual machine it says how far a phase's numbers describe the
// neighbours; it goes into the record as it is and selects nothing.
func (r stealReading) share() float64 {
	steal, total, err := stealTicks()
	if err != nil || !r.ok || total <= r.total {
		return -1
	}
	return (steal - r.steal) / (total - r.total)
}

func stealTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}
