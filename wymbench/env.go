package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp identifies the host, toolchain and code a result was measured
// on, and the GOMAXPROCS every process ran with.
type envStamp struct {
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SourceFP   string         `json:"source_fingerprint"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	CPU        map[string]int `json:"cpu_affinity"` // processes bound to one CPU
}

func stampEnv(root string) envStamp {
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceFP:   sourceFingerprint(root),
		GOMAXPROCS: map[string]int{"wymbench": runtime.GOMAXPROCS(0)},
	}
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

// gitCommit is the checkout's HEAD, or "none" when the checkout is not
// a git work tree of its own (git would otherwise report an enclosing
// repository's HEAD).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceFingerprint hashes every Go source and module file of the
// checkout (FNV-64a over sorted paths and contents), so results from a
// tree without git history still name the code they measured.
func sourceFingerprint(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the fingerprint
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		_, _ = io.Copy(h, f) // a short read only perturbs the fingerprint
		f.Close()
	}
	return fmt.Sprintf("fnv64:%016x", h.Sum64())
}
