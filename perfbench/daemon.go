package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// daemon is one cisgraphd process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd.Wait returns
	base    string        // http://127.0.0.1:port
	binAddr string        // CGBIN listener, "" for JSON workloads
	logf    *os.File
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

// startDaemon execs cisgraphd with deployment settings only (addresses,
// -file, -queries, -binary-addr, -wal) and waits until /healthz reports ok
// with every query registered. It returns the exec → ready time.
func startDaemon(bin, dir string, in *inputs, graphPath, queryFlag string, idx int) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-file", graphPath, "-queries", queryFlag}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	if in.w.Proto == "binary" {
		bport, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		d.binAddr = fmt.Sprintf("127.0.0.1:%d", bport)
		args = append(args, "-binary-addr", d.binAddr)
	}
	if in.w.WAL {
		args = append(args, "-wal", filepath.Join(dir, fmt.Sprintf("wal-%d", idx)))
	}
	if d.logf, err = os.Create(filepath.Join(dir, fmt.Sprintf("daemon-%d.log", idx))); err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = d.logf, d.logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.logf.Close()
		return nil, 0, fmt.Errorf("start cisgraphd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(len(in.queries), 30*time.Second); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// waitReady polls /healthz until the daemon is up with n queries armed.
func (d *daemon) waitReady(n int, limit time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("cisgraphd exited during start-up (see %s)", d.logf.Name())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			var h struct {
				Status  string `json:"status"`
				Queries int    `json:"queries"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" && h.Queries == n {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cisgraphd not ready after %v", limit)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.logf.Close()
}

// procSample is the daemon's CPU time and peak resident set.
type procSample struct {
	cpu     time.Duration // user + system
	vmHWMKB int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on Linux).
const clockTicks = 100

func (d *daemon) sample() (procSample, error) {
	var ps procSample
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	ps.cpu = time.Duration(utime+stime) * time.Second / clockTicks
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			ps.vmHWMKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return ps, err
		}
	}
	return ps, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads /metrics into a map keyed by the counter name for the
// cisgraph_counter family and by the series name for everything else.
func (d *daemon) scrape(ctx context.Context, client *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		if i := strings.Index(key, `name="`); i >= 0 && strings.HasPrefix(key, "cisgraph_counter{") {
			key = key[i+len(`name="`):]
			key = key[:strings.IndexByte(key, '"')]
		} else if i := strings.IndexByte(key, '{'); i >= 0 {
			key = key[:i]
		}
		out[key] += v
	}
	return out, sc.Err()
}
