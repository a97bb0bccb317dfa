package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Model fixtures: trained once with cmd/asrtrain (regen_fixtures.sh)
// and verified against SHA256SUMS at every setup, so the decode and
// serve inputs stay fixed even when a change alters training numerics.
const (
	fixtureSmallDense = "small-prune00.model"
	fixtureTinyP90    = "tiny-prune90.model"
	fixtureSums       = "SHA256SUMS"
)

// fixturePath verifies name against the fixture directory's
// SHA256SUMS and returns its path.
func fixturePath(dir, name string) (string, error) {
	sums, err := readSums(dir)
	if err != nil {
		return "", err
	}
	want, ok := sums[name]
	if !ok {
		return "", fmt.Errorf("fixture %s is not listed in %s", name, fixtureSums)
	}
	path := filepath.Join(dir, name)
	got, err := sha256File(path)
	if err != nil {
		return "", err
	}
	if got != want {
		return "", fmt.Errorf("fixture %s: sha256 %s, want %s (run perfbench/regen_fixtures.sh)", path, got, want)
	}
	return path, nil
}

// readSums parses a sha256sum-format file: "<hex>  <name>" per line.
func readSums(dir string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(dir, fixtureSums))
	if err != nil {
		return nil, fmt.Errorf("fixture checksums: %w", err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		sums[strings.TrimPrefix(fields[1], "*")] = fields[0]
	}
	return sums, sc.Err()
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// provenance describes where a result came from (ROADMAP item 1).
// The benchmark usually runs in an exported tree without git
// metadata, so alongside the build's VCS stamp it records a SHA-256
// over the repository's Go sources and module files.
func provenance(o options) (map[string]any, error) {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	src, err := sourceHash(".")
	if err != nil {
		return nil, err
	}
	sums, err := readSums(o.fixtures)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"sessions":    o.sessions,
		"commit":      commit,
		"dirty":       dirty,
		"source_sha":  src,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"fixtures":    sums,
		"recorded_at": time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// sourceHash fingerprints every .go, go.mod and fixture file under
// root in path order, skipping build output and VCS directories.
func sourceHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".model") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source hash: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCPU returns the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (clock-tick resolution, 100 Hz on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB;
// pid 0 means the benchmark itself.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// procIO returns a process's read-side I/O counters from
// /proc/<pid>/io: bytes passed to read syscalls (rchar) and the
// number of read syscalls (syscr).
func procIO(pid int) (rchar, syscr int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			rchar = n
		case "syscr":
			syscr = n
		}
	}
	return rchar, syscr, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
