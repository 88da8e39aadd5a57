package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// commitOf identifies the code under test: the commit run.sh found, or
// (outside a git checkout) a digest of the tree's Go sources.
func commitOf() string {
	if c := os.Getenv("E2EBENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "e2ebench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-tree sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// daemonGOMAXPROCS is what the daemon's runtime picks: the inherited
// GOMAXPROCS variable, else the CPU count it sees (the same host and
// affinity as this process).
func daemonGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v + " (from GOMAXPROCS)"
	}
	return strconv.Itoa(runtime.NumCPU()) + " (Go default)"
}
