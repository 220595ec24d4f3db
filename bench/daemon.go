package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonFlags are the flags every deployment under test runs with: the
// real durable configuration (per-mutation fsync), batched dispatch, the
// paper's one container per node, the default 100-device fleet.
var daemonFlags = []string{"-wal-fsync=true", "-concurrency", "8", "-node-concurrency", "1"}

const (
	daemonConcurrency     = 8
	daemonNodeConcurrency = 1
)

// deployment is a QRIO under test. The timed runs use a spawned cmd/qrio
// child; the traced run uses a child of the harness's own binary hosting
// the same configuration with its exported seams wrapped; tests host that
// one in-process.
type deployment interface {
	URL() string
	// CPU is the deployment's cumulative user+system CPU time.
	CPU() (time.Duration, error)
	// PeakRSSMB is the deployment's resident-set high-water mark.
	PeakRSSMB() (float64, error)
	// Stop shuts the deployment down gracefully (SIGTERM for a child) and
	// reports whether it exited cleanly. Idempotent.
	Stop() error
}

// child is a spawned deployment process.
type child struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	logFile *os.File

	waitErr  error
	exited   chan struct{}
	stopOnce sync.Once
	stopErr  error
}

// freePort asks the kernel for an unused loopback port. The probe is the
// guard against starting on an address something else already owns.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("port probe: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("port probe: %w", err)
	}
	return port, nil
}

// staleChildren lists processes still running the given executable — a
// previous run's daemon that was never reaped would share the box's two
// cores with this run and poison every number.
func staleChildren(exe string) []int {
	want, err := filepath.EvalSymlinks(exe)
	if err != nil {
		return nil
	}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		target, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		if strings.TrimSuffix(target, " (deleted)") == want {
			pids = append(pids, pid)
		}
	}
	return pids
}

// spawn starts exe with args plus the listen address and a fresh data
// directory under runDir, stderr and stdout going to a run log. The child
// is killed if the harness dies (Pdeathsig) and on every exit path the
// caller reaches (Stop / Kill).
func spawn(exe string, args []string, runDir string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(runDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(runDir, "daemon.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	full := append([]string{"-addr", addr, "-data-dir", dataDir}, args...)
	cmd := exec.Command(exe, full...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("spawning %s: %w", exe, err)
	}
	c := &child{
		cmd: cmd, url: "http://" + addr,
		logPath: logPath, logFile: logFile, exited: make(chan struct{}),
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) URL() string { return c.url }

// procClockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const procClockTick = 100

func (c *child) CPU() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(raw)
}

// parseProcStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStatCPU(raw []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(string(raw[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed CPU fields in /proc stat line")
	}
	return time.Duration(utime+stime) * time.Second / procClockTick, nil
}

func (c *child) PeakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

// parseVmHWM extracts the peak resident set size, in MB, from a
// /proc/<pid>/status file.
func parseVmHWM(raw []byte) (float64, error) {
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Stop sends SIGTERM and waits for the graceful drain; a child that has
// not exited after 20 s is killed and reported.
func (c *child) Stop() error {
	c.stopOnce.Do(func() {
		defer c.logFile.Close()
		select {
		case <-c.exited:
			c.stopErr = fmt.Errorf("deployment exited before it was stopped: %v (log: %s)", c.waitErr, c.logPath)
			return
		default:
		}
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			c.stopErr = fmt.Errorf("signalling deployment: %w", err)
		}
		select {
		case <-c.exited:
			if c.waitErr != nil {
				c.stopErr = fmt.Errorf("deployment did not exit cleanly on SIGTERM: %v (log: %s)", c.waitErr, c.logPath)
			}
		case <-time.After(20 * time.Second):
			c.cmd.Process.Kill()
			<-c.exited
			c.stopErr = fmt.Errorf("deployment ignored SIGTERM for 20s and was killed (log: %s)", c.logPath)
		}
	})
	return c.stopErr
}

// Kill is the unconditional cleanup for error, signal and panic paths.
func (c *child) Kill() {
	select {
	case <-c.exited:
	default:
		c.cmd.Process.Kill()
		<-c.exited
	}
	c.logFile.Close()
}

// waitHealthy polls GET /v1/health until the deployment answers ok, the
// child dies, or the deadline passes.
func waitHealthy(ctx context.Context, d deployment, exited <-chan struct{}, probe func(context.Context) error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := probe(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("deployment at %s not healthy after 30s: %w", d.URL(), err)
		}
		select {
		case <-exited:
			return errors.New("deployment exited during start-up (see its log)")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// fsTypeOf reports the filesystem type holding path, from /proc/mounts
// (longest mount-point prefix wins).
func fsTypeOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > bestLen {
				best, bestLen = f[2], len(mp)
			}
		}
	}
	return best
}
