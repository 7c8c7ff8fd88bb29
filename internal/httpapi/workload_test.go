package httpapi

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"robustmap/internal/service"
	"robustmap/internal/spec"
)

// TestPlansEndpoint pins GET /v1/plans: the discovery listing carries
// every built-in plan id with its system and description, through both
// raw HTTP and the typed client.
func TestPlansEndpoint(t *testing.T) {
	ts, _, stop := startServer(t, nil, 1)
	defer stop()

	resp, err := ts.Client().Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatalf("GET /v1/plans: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	c := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	plans, err := c.Plans(context.Background())
	if err != nil {
		t.Fatalf("client.Plans: %v", err)
	}
	want := service.BuiltinPlans()
	if !reflect.DeepEqual(plans, want) {
		t.Fatalf("client.Plans = %v, want %v", plans, want)
	}
	byID := map[string]service.PlanInfo{}
	for _, p := range plans {
		byID[p.ID] = p
	}
	for _, id := range []string{"A1", "B1", "C1", "F1-trad"} {
		p, ok := byID[id]
		if !ok || p.Description == "" || p.System == "" {
			t.Errorf("plan %s missing or undescribed in listing: %+v", id, p)
		}
	}
}

// TestWorkloadOverTheWire is the acceptance pin for custom workloads:
// the example workload file sweeps identically through the local
// Service and the HTTP daemon — the full spec travels inside the
// request body, and the resulting maps agree to the byte in their JSON
// encoding.
func TestWorkloadOverTheWire(t *testing.T) {
	ws, err := spec.LoadFile("../../examples/workloads/skewed.json")
	if err != nil {
		t.Fatalf("load example workload: %v", err)
	}
	// Shrink the example for test time; the CI daemon-smoke job runs the
	// file at its committed scale.
	ws.Catalog.Tables[0].Rows = 1 << 12
	ws.Sweep.MaxExp = 3
	req := service.Request{Workload: ws}
	ctx := context.Background()

	l := service.NewLocal(service.LocalConfig{Workers: 1})
	defer func() {
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := l.Close(cctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	lres, err := service.Run(ctx, l, req, nil)
	if err != nil {
		t.Fatalf("local workload run: %v", err)
	}

	ts, _, stop := startServer(t, nil, 1)
	defer stop()
	c := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	hres, err := service.Run(ctx, c, req, nil)
	if err != nil {
		t.Fatalf("remote workload run: %v", err)
	}

	if lres.Map2D == nil || hres.Map2D == nil {
		t.Fatal("workload sweep produced no 2-D map")
	}
	if !jsonEqual(t, hres, lres) {
		t.Fatal("remote workload result differs from the local service's")
	}

	// The request echo in Status round-trips the workload spec itself.
	id, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Request.Workload == nil || st.Request.Workload.Hash() != ws.Hash() {
		t.Fatal("status echo lost or altered the workload spec")
	}
	if _, err := service.Wait(ctx, c, id, nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestWorkloadRejectedOverTheWire pins the sentinel mapping for bad
// workloads: an unknown operator is an invalid_request on the wire and
// ErrInvalidRequest again on the client side.
func TestWorkloadRejectedOverTheWire(t *testing.T) {
	ts, _, stop := startServer(t, nil, 1)
	defer stop()
	c := NewClient(ts.URL, WithHTTPClient(ts.Client()))

	ws, err := spec.LoadFile("../../examples/workloads/skewed.json")
	if err != nil {
		t.Fatalf("load example workload: %v", err)
	}
	ws.Systems[0].Plans[0].Root.Op = "quantum_scan"
	_, err = c.Submit(context.Background(), service.Request{Workload: ws})
	if !errors.Is(err, service.ErrInvalidRequest) {
		t.Fatalf("Submit err = %v, want ErrInvalidRequest", err)
	}
}

// TestStudyPlansOn1DAxis pins built-in admission on a request without
// grid_2d, over all thirteen study plans: the six that degrade legally
// when tb is absent run; the seven that reach through the b threshold
// are refused at Submit — invalid_request on the wire, ErrInvalidRequest
// through the client — rather than failing mid-job with a compiler panic
// or a row cross-check.
func TestStudyPlansOn1DAxis(t *testing.T) {
	ts, _, stop := startServer(t, nil, 1)
	defer stop()
	c := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()

	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"A1", true}, {"A2", true}, {"A3", false}, {"A4", false}, {"A5", false},
		{"A6", false}, {"A7", false}, {"B1", true}, {"B2", false}, {"B3", true},
		{"B4", false}, {"C1", true}, {"C2", true},
	} {
		req := service.Request{Plans: []string{"A1", tc.id}, Rows: 1 << 9, MaxExp: 2}
		if tc.ok {
			res, err := service.Run(ctx, c, req, nil)
			if err != nil || res.Map1D == nil || len(res.Map1D.Plans) != 2 {
				t.Errorf("plan %s on a 1-D axis: result %+v, err %v", tc.id, res, err)
			}
			continue
		}
		if _, err := c.Submit(ctx, req); !errors.Is(err, service.ErrInvalidRequest) ||
			!strings.Contains(err.Error(), "two-predicate") {
			t.Errorf("Submit plan %s on a 1-D axis: err = %v, want ErrInvalidRequest naming the two-predicate query", tc.id, err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"plans":["A1","`+tc.id+`"],"rows":512,"max_exp":2}`))
		if err != nil {
			t.Fatal(err)
		}
		wireError(t, resp, http.StatusBadRequest, "invalid_request")
		// The same plan is welcome on the 2-D grid.
		req.Grid2D = true
		if _, err := c.Submit(ctx, req); err != nil {
			t.Errorf("Submit plan %s on a 2-D grid: %v", tc.id, err)
		}
	}
}
