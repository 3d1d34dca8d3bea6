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
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostStamp identifies the host and the build a result came from.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the checkout is a repository;
	// TreeSHA256 hashes the Go sources either way, so results from a
	// checkout without git history still name the code they measured.
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty,omitempty"`
	TreeSHA256 string `json:"tree_sha256"`
}

func stampHost(root string) hostStamp {
	h := hostStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		TreeSHA256: treeHash(root),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(out))) > 0
			h.Dirty = &dirty
		}
	}
	return h
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

// treeHash digests every .go file and go.mod under root (skipping hidden
// directories such as the build output), in path order.
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		sum.Write([]byte(rel + "\x00"))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// cpuTicks reads the host-wide busy and steal time from /proc/stat, in
// clock ticks; the stamp reports their change over a run, so a run slowed
// by the hypervisor can be told apart from a slow program.
func cpuTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
		default:
			busy += n
		}
	}
	return busy, steal
}

// cpuProbe times a fixed CPU-bound loop (SHA-256 over 1 MiB, 20 times) and
// returns the median of five repetitions in milliseconds. The stamp carries
// it from before and after a run, so a change in the host's own speed
// during a set of runs shows next to the metrics it moved.
func cpuProbe() float64 {
	buf := make([]byte, 1<<20)
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < 20; i++ {
			sha256.Sum256(buf)
		}
		reps = append(reps, ms(time.Since(t0)))
	}
	return median(reps)
}
