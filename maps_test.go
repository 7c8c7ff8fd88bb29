package robustmap

// TestMapBaselines guards the maps themselves — the product the paper's
// robustness methodology exists to produce. Two representative sweeps
// (the built-in paper plans on a 2-D grid, and the example optimizer
// query with its regret overlay) are run in process and compared
// byte-for-byte against the committed baselines in testdata/maps/. Any
// drift — a moved winner boundary, a shifted landmark, a changed regret
// cell — fails with the structural delta named, until the baselines are
// regenerated deliberately with
//
//	go test -run TestMapBaselines -update-maps .
//
// CI runs the same comparison end to end through the binaries: cmd/sweep
// with -store archives the finished map, and `robustmap diff` compares
// the stored envelope against these files.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustmap/internal/mapdiff"
	"robustmap/internal/service"
	"robustmap/internal/spec"
)

var updateMaps = flag.Bool("update-maps", false, "rewrite testdata/maps/*.json from fresh sweeps")

// mapBaselineScenarios returns the swept requests, keyed by baseline
// file name. These must stay in lockstep with the map-regression CI
// job, which reproduces them through cmd/sweep -store.
func mapBaselineScenarios(t *testing.T) []struct {
	Name string
	Req  service.Request
} {
	t.Helper()
	q, err := spec.LoadQueryFile(filepath.Join("examples", "workloads", "skewed_query.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The join query carries no Rows/MaxExp overrides: multi-table
	// catalogs declare every cardinality themselves (a Rows override is
	// rejected at admission) and the axis comes from the spec's sweep.
	jq, err := spec.LoadQueryFile(filepath.Join("examples", "workloads", "join_fkskew_query.json"))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		Name string
		Req  service.Request
	}{
		{"builtin_2d", service.Request{
			Plans: []string{"A1", "A2", "B1"}, Rows: 65536, MaxExp: 6, Grid2D: true,
		}},
		// The only baseline carrying a mesh_1d: Figure 2's plans on the
		// refined 1-D axis.
		{"builtin_1d_refine", service.Request{
			Plans: []string{"A1", "F1-trad", "A2", "F2-merge-ab", "F2-merge-ba", "F2-hash-ab", "F2-hash-ba"},
			Rows:  16384, MaxExp: 12, Refine: true,
		}},
		{"skewed_query", service.Request{Query: q, Rows: 65536, MaxExp: 6}},
		{"join_query", service.Request{Query: jq}},
	}
}

func TestMapBaselines(t *testing.T) {
	svc := service.NewLocal(service.LocalConfig{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	for _, sc := range mapBaselineScenarios(t) {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := service.Run(context.Background(), svc, sc.Req, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "maps", sc.Name+".json")
			if *updateMaps {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("baseline updated: %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no committed map baseline: %v (run with -update-maps to create it)", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			// Bytes differ: name what actually moved, not just that
			// something did.
			baseline := &service.Result{}
			if err := json.Unmarshal(want, baseline); err != nil {
				t.Fatalf("committed baseline %s is unreadable: %v", path, err)
			}
			rep := mapdiff.Compare(baseline, res)
			delta := strings.Join(rep.Lines(), "\n\t")
			if rep.Identical() {
				delta = "(no structural delta — encoding drift only)"
			}
			t.Errorf("map drifted from the committed baseline %s:\n\t%s\n"+
				"If the change is deliberate, regenerate with:\n"+
				"\tgo test -run TestMapBaselines -update-maps .", path, delta)
		})
	}
}
