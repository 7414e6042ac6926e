package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance names the box and the code a result came from, so every
// number carries host_cpus, gomaxprocs, the Go version and the commit.
// A checkout without git history still has a source digest: the SHA-256
// of every Go source and module file under the working directory.
func provenance(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":      cfg.Workload,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"trace":         cfg.Trace,
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
