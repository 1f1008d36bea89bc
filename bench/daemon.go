package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file owns every process the benchmark starts: building pmaxtd,
// spawning daemons on ephemeral ports, reading their CPU time and memory
// from /proc, and making sure none of them outlives the benchmark.

// buildDaemon compiles ./cmd/pmaxtd of the module rooted at root into
// binDir and returns the binary path and the build wall time.  The go
// command decides staleness, so a warm cache makes this a sub-second
// no-op and a source change is never missed.
func buildDaemon(ctx context.Context, root, binDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "pmaxtd")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pmaxtd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pmaxtd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// fleet tracks the daemons of one benchmark process so that every exit
// path — success, failed check, timeout, SIGINT — can stop them all.
type fleet struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
}

func newFleet() *fleet { return &fleet{procs: make(map[*daemon]struct{})} }

// killAll stops every live daemon immediately and waits for each.
func (f *fleet) killAll() {
	f.mu.Lock()
	ds := make([]*daemon, 0, len(f.procs))
	for d := range f.procs {
		ds = append(ds, d)
	}
	f.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one running pmaxtd.
type daemon struct {
	fleet *fleet
	cmd   *exec.Cmd
	url   string // http://127.0.0.1:<port>
	dir   string // journal tree + log of this daemon
	isa   string // accumulation kernel the daemon reported at start-up
	// done is closed once the process has been waited for; waitErr then
	// holds its exit status.
	done    chan struct{}
	waitErr error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)
var kernelRE = regexp.MustCompile(`pmaxtd: kernel (\S+)`)

// spawn starts one pmaxtd with production-default flags plus only the
// address, journal directory, log destination and role flags, and
// returns once the daemon printed its bound address.  dir is created.
func (f *fleet) spawn(ctx context.Context, bin, dir string, roleFlags ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-journal-dir", filepath.Join(dir, "journal"),
		"-log", filepath.Join(dir, "daemon.log"),
	}
	args = append(args, roleFlags...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderrFile, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderrFile.Close() // the child holds its own descriptor
	cmd.Stderr = stderrFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{fleet: f, cmd: cmd, dir: dir, done: make(chan struct{})}
	f.mu.Lock()
	f.procs[d] = struct{}{}
	f.mu.Unlock()

	// The lifecycle lines on stdout carry the kernel ISA and the bound
	// port; keep draining afterwards so the daemon never blocks on a
	// full pipe.
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if m := kernelRE.FindStringSubmatch(line); m != nil {
				d.isa = m[1]
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
	}()

	select {
	case addr := <-addrc:
		d.url = "http://" + addr
		return d, nil
	case <-d.done:
		f.forget(d)
		return nil, fmt.Errorf("pmaxtd exited before listening: %v (see %s)", d.waitErr, dir)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("pmaxtd printed no listening line within 20s (see %s)", dir)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

func (f *fleet) forget(d *daemon) {
	f.mu.Lock()
	delete(f.procs, d)
	f.mu.Unlock()
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
	d.fleet.forget(d)
}

// waitReady polls /v1/readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 20s: %v", d.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU
// times; Linux fixes it at 100 for every architecture Go supports.
const clockTicksPerSecond = 100

// cpuSeconds returns the CPU time the daemon's threads have had so far:
// the on-CPU nanoseconds of every /proc/<pid>/task/<tid>/schedstat
// summed (a Go daemon's threads do not exit, so the sum only grows).  On
// a kernel without scheduler statistics it falls back to utime+stime of
// /proc/<pid>/stat, which counts in 10 ms ticks — too coarse for the
// per-window medians of a workload whose ops take a second of CPU.
func (d *daemon) cpuSeconds() (float64, error) {
	pid := d.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns uint64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		n, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		ns += n
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseSchedstat extracts the on-CPU nanoseconds, the first field of a
// schedstat line.
func parseSchedstat(line string) (uint64, error) {
	f := strings.Fields(line)
	if len(f) < 1 {
		return 0, errors.New("malformed schedstat line: no fields")
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed schedstat on-CPU field %q", f[0])
	}
	return ns, nil
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line.  The command name (field 2) is parenthesised
// and may itself contain spaces or parentheses, so fields are counted
// from the LAST closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so fields 14 and 15 are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat CPU fields %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		// Files may vanish mid-walk (atomic renames); skip what is gone.
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// fsName names the filesystem holding dir ("tmpfs", "ext4", ...) from
// /proc/mounts: the longest mount point that prefixes dir wins.
func fsName(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, name := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, name = len(mp), f[2]
			}
		}
	}
	return name
}
