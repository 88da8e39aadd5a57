package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"contractdb/internal/server"
)

// daemon is one running ctdbd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // process exit status, valid once done is closed
}

// startDaemon launches ctdbd on dataDir with the workload's flags,
// appending its log to logPath, and returns once /v1/health answers.
func startDaemon(bin, dataDir, logPath string, events []string, flags []string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-data-dir", dataDir, "-addr", addr, "-events", strings.Join(events, ",")}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ctdbd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("ctdbd exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if resp, err := probe.Get(d.base + "/v1/health"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ctdbd did not answer /v1/health within 60s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// client returns a typed client over its own single-connection
// transport, so each closed-loop caller holds exactly one connection.
func (d *daemon) client() *server.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return server.NewClient(d.base, &http.Client{Transport: tr, Timeout: 120 * time.Second})
}

// stop sends SIGTERM and waits for the clean shutdown (drain, final
// checkpoint). A daemon that exits with an error or hangs is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("ctdbd did not shut down within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("ctdbd shutdown: %w", d.err)
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// peakRSSMB reads the daemon's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// gcCycles reads the daemon's completed GC cycles from its Prometheus
// exposition.
func gcCycles(c *server.Client) (int64, error) {
	text, err := c.PrometheusMetrics()
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "go_gc_cycles_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("no go_gc_cycles_total in /metrics")
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}

// copyDir copies a data directory (regular files only) for the traced
// replay's recovery measurement.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// fsType names the filesystem holding dir, from /proc/self/mounts (the
// longest mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]+" on "+f[0]
		}
	}
	return typ
}
