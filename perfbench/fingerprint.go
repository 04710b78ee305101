package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the machine and the code a result came from,
// so results from different CPUs or commits are never compared
// silently.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`      // git HEAD, when the checkout is a repository
	Source     string  `json:"source"`      // digest of go.mod and every .go file
	CalibNs    float64 `json:"calib_ns_op"` // the fixed calibration loop, ns per iteration
}

func machine(root string) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "none",
		Source:     sourceDigest(root),
		CalibNs:    calibrate(),
	}
	// Only a repository rooted at the checkout counts: git must not
	// search the directories above it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GIT_DIR="+filepath.Join(root, ".git"))
		if out, err := cmd.Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file under root, in path
// order, skipping build output.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var calibSink uint64

// calibrate times a fixed integer loop (xorshift plus a dependent
// multiply) and returns ns per iteration: a CPU-speed reference that
// travels with every result.
func calibrate() float64 {
	const iters = 20_000_000
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		acc := uint64(0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc = acc*31 + x
		}
		ns := float64(time.Since(t0).Nanoseconds()) / iters
		calibSink += acc
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat, in clock ticks.  Steal is time the hypervisor ran
// something else while this machine's CPUs wanted to run.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
