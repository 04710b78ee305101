package main

import (
	"bufio"
	"encoding/json"
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

	"repro/internal/server"
)

// daemon is one running serve process.
type daemon struct {
	cmd  *exec.Cmd
	args []string
	url  string // http://127.0.0.1:port
	log  string
	done chan struct{} // closed once the process has been reaped
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// freeAddr reserves an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches serve with args plus a fresh loopback address.
// It does not wait for readiness.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return startAt(bin, logPath, addr, args)
}

func startAt(bin, logPath, addr string, args []string) (*daemon, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, args: args, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	live.Store(d, struct{}{})
	go func() {
		cmd.Wait()
		lf.Close()
		live.Delete(d)
		close(d.done)
	}()
	return d, nil
}

// restart launches the same command line on the same address.
func (d *daemon) restart(bin string) (*daemon, error) {
	return startAt(bin, d.log, strings.TrimPrefix(d.url, "http://"), d.args)
}

// stats fetches /v1/stats.
func (d *daemon) stats() (*server.StatsResponse, error) {
	resp, err := probeClient.Get(d.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Status)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitGen polls /v1/stats until the daemon answers at generation gen
// or later, and returns that answer.
func (d *daemon) waitGen(gen uint64, timeout time.Duration) (*server.StatsResponse, error) {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon %s exited during start-up; see %s", d.url, d.log)
		default:
		}
		if st, err := d.stats(); err == nil && st.Generation >= gen {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon %s not at generation %d after %v; see %s", d.url, gen, timeout, d.log)
		}
		// Set-up and recovery take ten milliseconds and up, so the
		// poll period must stay well below one.
		time.Sleep(100 * time.Microsecond)
	}
}

// kill9 sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill9() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop sends SIGTERM, giving the daemon time for its final
// checkpoint, and falls back to SIGKILL.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill9()
	}
}

// vmHWM reads the process's peak resident set size in MiB.
func (d *daemon) vmHWM() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cluster is the set of daemons one workload runs: a leader, and for
// the durable workload a follower that serves the reads.
type cluster struct {
	leader   *daemon
	follower *daemon
}

// reader is the daemon that answers the workload's queries.
func (c *cluster) reader() *daemon {
	if c.follower != nil {
		return c.follower
	}
	return c.leader
}

func (c *cluster) stop() {
	if c.follower != nil {
		c.follower.stop()
	}
	if c.leader != nil {
		c.leader.stop()
	}
}

// startCluster launches the workload's daemons in dir and returns once
// each is ready: the leader answers /v1/stats, and the follower has
// caught up to the leader's first generation.  It reports the seconds
// from the first launch until then.
func startCluster(bin string, w *workload, progFile, factsFile, dir string) (*cluster, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	args := []string{"-program", progFile, "-facts", factsFile, "-semantics", w.semantics}
	if w.magic {
		args = append(args, "-magic")
	}
	if w.durable {
		args = append(args, "-data-dir", filepath.Join(dir, "leader"), "-fsync", "always")
	}
	t0 := time.Now()
	c := &cluster{}
	var err error
	if c.leader, err = startDaemon(bin, filepath.Join(dir, "leader.log"), args...); err != nil {
		return nil, 0, err
	}
	st, err := c.leader.waitGen(0, 60*time.Second)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	if w.durable {
		fargs := []string{"-program", progFile, "-semantics", w.semantics,
			"-follow", c.leader.url, "-data-dir", filepath.Join(dir, "follower"), "-fsync", "always"}
		if c.follower, err = startDaemon(bin, filepath.Join(dir, "follower.log"), fargs...); err != nil {
			c.stop()
			return nil, 0, err
		}
		if _, err := c.follower.waitGen(st.Generation, 60*time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(t0).Seconds(), nil
}
