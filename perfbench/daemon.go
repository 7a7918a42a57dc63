package main

import (
	"bytes"
	"context"
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

	"delaycalc/internal/service"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; 100 on every mainstream Linux build.
const clockTicks = 100

// daemon is one running delayd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args plus a loopback -addr and returns once
// /v2/healthz answers 200, with the time that took. The daemon's log goes
// to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the harness, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan error, 1)}
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case err := <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("delayd exited during start-up (%v); log: %s", err, tail(logPath))
		default:
		}
		resp, err := probe.Get(d.base + "/v2/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("delayd not healthy after 120s; log: %s", tail(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and closes its log.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.exited
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("delayd did not stop within 15s of SIGTERM")
	}
}

// tail returns the last few hundred bytes of a log file for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(" + err.Error() + ")"
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields of the whole line.
	s := string(data)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// machineTicks returns the machine's cumulative CPU-time counters from
// /proc/stat: all time, and time stolen by the hypervisor.
func machineTicks() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // guest time is already counted in user time
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// getJSON fetches base+path and decodes the JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	body, status, err := get(ctx, c, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return json.Unmarshal(body, v)
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// readCounters takes one reading of the daemon's /stats and /metrics.
func readCounters(ctx context.Context, c *http.Client, base string) (service.StatsResponse, map[string]float64, error) {
	var st service.StatsResponse
	if err := getJSON(ctx, c, base+apiPrefix+"/stats", &st); err != nil {
		return st, nil, err
	}
	body, status, err := get(ctx, c, base+apiPrefix+"/metrics")
	if err != nil {
		return st, nil, err
	}
	if status != http.StatusOK {
		return st, nil, fmt.Errorf("GET metrics: status %d", status)
	}
	m, err := parseMetrics(bytes.NewReader(body))
	return st, m, err
}
