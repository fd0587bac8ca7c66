package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// daemon is one linqd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	stdout chan struct{} // closed once the stdout pipe is drained
}

// buildLinqd compiles cmd/linqd from the repository at root into bin.
func buildLinqd(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/linqd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/linqd: %v\n%s", err, out)
	}
	return nil
}

// startDaemon execs linqd on a free loopback port and returns once it
// prints its listening address. Its structured log goes to the null device.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain", "20s"}, args...)...)
	// A linqbench killed mid-run (by a timeout, say) takes its daemon along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start linqd: %w", err)
	}
	d := &daemon{cmd: cmd, stdout: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "linqd: listening on "); ok {
			d.base = "http://" + addr
			break
		}
	}
	go func() {
		defer close(d.stdout)
		_, _ = io.Copy(io.Discard, out) // ends when linqd exits
	}()
	if d.base == "" {
		<-d.stdout
		err := cmd.Wait()
		return nil, fmt.Errorf("linqd exited before listening: %v", err)
	}
	return d, nil
}

// stop sends SIGTERM, which drains linqd's queue, and waits for the exit;
// a daemon still running after the grace period is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.stdout
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("linqd: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return errors.New("linqd did not drain within 30s and was killed")
	}
}

// cpuTime returns the user plus system CPU time linqd has used so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields resume after
	// its closing parenthesis with field 3 (state), so utime and stime,
	// fields 14 and 15, sit at offsets 11 and 12.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// cpuSample is linqd's CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// cpuSampleEvery spaces the CPU samples: many per window, and few enough
// that reading /proc costs nothing measurable.
const cpuSampleEvery = 50 * time.Millisecond

// sampleCPU samples linqd's CPU time until stop is closed, then delivers
// the samples, the first and last taken at start and stop.
func (d *daemon) sampleCPU(stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		var samples []cpuSample
		take := func() {
			if c, err := d.cpuTime(); err == nil {
				samples = append(samples, cpuSample{time.Now(), c})
			}
		}
		tick := time.NewTicker(cpuSampleEvery)
		defer tick.Stop()
		take()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				take()
				out <- samples
				return
			}
		}
	}()
	return out
}

// cpuAt interpolates the CPU time at t between the samples around it.
func cpuAt(samples []cpuSample, t time.Time) time.Duration {
	i := sort.Search(len(samples), func(i int) bool { return !samples[i].at.Before(t) })
	switch {
	case i == 0:
		return samples[0].cpu
	case i == len(samples):
		return samples[len(samples)-1].cpu
	}
	a, b := samples[i-1], samples[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.cpu + time.Duration(f*float64(b.cpu-a.cpu))
}

// peakRSS returns linqd's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
