package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Every map a workload produces is compared with a committed digest:
// measurements are virtual-clock times, deterministic by construction,
// so a map that differs by one bit means the program computes something
// else than it did when the digest was committed. A wall-clock
// optimisation must not move them; a change that means to (new cost
// model, new plan) regenerates them with -update-golden and says so.
//
// A golden file holds one line per map: "<sha256> <cells> <label>".
// paper13_fleet2 has no file of its own: it must reproduce
// paper13_exhaustive's digest.

// goldenDir is where -update-golden writes, from the root of the
// repository; a build embeds what is there.
const goldenDir = "benchmark/golden"

//go:embed golden/*.sha256
var goldenFS embed.FS

type goldenEntry struct {
	digest string
	cells  int
}

// goldenSet maps a label to its committed digest.
type goldenSet map[string]goldenEntry

func goldenFile(workload string, smoke bool) string {
	if smoke {
		return workload + ".smoke.sha256"
	}
	return workload + ".sha256"
}

// loadGolden reads a committed golden file. A missing file is an error:
// a benchmark that cannot check its outputs must not report numbers.
func loadGolden(workload string, smoke bool) (goldenSet, error) {
	name := goldenFile(workload, smoke)
	b, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w (run with -update-golden to create it)", name, err)
	}
	set := goldenSet{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e goldenEntry
		var label string
		if _, err := fmt.Sscanf(line, "%s %d %s", &e.digest, &e.cells, &label); err != nil {
			return nil, fmt.Errorf("golden %s: bad line %q: %w", name, line, err)
		}
		set[label] = e
	}
	return set, nil
}

// writeGolden rewrites a golden file under dir, lines sorted by label.
func writeGolden(dir, workload string, smoke bool, set goldenSet) error {
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sb strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&sb, "%s %d %s\n", set[l].digest, set[l].cells, l)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile(workload, smoke)), []byte(sb.String()), 0o644)
}

// digest is the sha256 of v's JSON encoding, the byte-identity bar the
// repository's equivalence tests use.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
