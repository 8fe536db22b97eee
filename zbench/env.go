package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is where a run happens: the checkout, the built binaries, and the
// load limits every process of the run stays within.
type env struct {
	root string // checkout root (the working directory)
	bin  string // directory holding the built zeiotbench and zeiotd
	work string // directory for address files and trace output
	// nproc bounds GOMAXPROCS, zeiotbench -trainworkers, zeiotd -workers and
	// the load generator's connections alike.
	nproc int
	// procs is GOMAXPROCS and -trainworkers of the workload's zeiotbench
	// passes.
	procs int
	refs  map[string][]byte
}

// lanes is how many passes a batch run keeps going at once: enough to give
// every processor work, so passes of a workload that uses one processor run
// nproc at a time, as those of a workload that uses them all run alone.
func (e *env) lanes() int { return max(1, e.nproc/e.procs) }

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the checkout root: %w", err)
	}
	e := &env{
		root:  root,
		bin:   filepath.Join(root, ".bench_build", "bin"),
		work:  filepath.Join(root, ".bench_build", "run"),
		nproc: runtime.NumCPU(),
	}
	for _, name := range []string{"zeiotbench", "zeiotd"} {
		if _, err := os.Stat(filepath.Join(e.bin, name)); err != nil {
			return nil, fmt.Errorf("%s is not built (zbench/run.sh builds it): %w", name, err)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(e.nproc)
	return e, nil
}

// describe records the load limits and the machine in one JSON object.
func (e *env) describe() string {
	b, _ := json.Marshal(map[string]any{
		"nproc":          e.nproc,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"pass_procs":     e.procs,
		"pass_lanes":     e.lanes(),
		"zeiotd_workers": daemonWorkers,
		"client_conns":   e.nproc,
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
		"source_sha256":  sourceDigest(e.root),
	})
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the program under test: a SHA-256 over the
// module's Go sources and go.mod, with their paths. The checkout a run sees
// is not a git repository, so this stands in for the commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".bench_build" || rel == ".git" || rel == "zbench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// command prepares a built binary to run with GOMAXPROCS procs. The child
// is killed if the context ends or the benchmark dies.
func (e *env) command(ctx context.Context, procs int, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// procResult is one finished child process.
type procResult struct {
	out   []byte
	wall  time.Duration
	cpu   time.Duration // user + system time of the child
	rssMB float64       // peak resident set size
}

// runProc runs a built binary to completion with GOMAXPROCS procs and
// reports its output, wall time and resource use.
func (e *env) runProc(ctx context.Context, procs int, name string, args ...string) (procResult, error) {
	cmd := e.command(ctx, procs, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := procResult{out: stdout.Bytes(), wall: time.Since(t0)}
	if ps := cmd.ProcessState; ps != nil {
		r.rssMB = peakRSS(ps)
		r.cpu = ps.UserTime() + ps.SystemTime()
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return r, nil
}

// peakRSS returns a reaped process's peak resident set size in MB.
func peakRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zbench: "+format+"\n", args...)
}
