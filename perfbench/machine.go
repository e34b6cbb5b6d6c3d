package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machineStanza identifies what was measured and where.
type machineStanza struct {
	// Commit is the git commit of the working directory, or "unknown"
	// outside a git checkout; SourceDigest then still identifies the
	// code: a SHA-256 over the paths and contents of every .go, go.mod
	// and go.sum file under the working directory.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Seed         int64  `json:"seed"`
}

func machine(seed int64) machineStanza {
	return machineStanza{
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         seed,
	}
}

// commit asks git only when the working directory is the root of a git
// checkout, so that it never reports the commit of an enclosing one.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
