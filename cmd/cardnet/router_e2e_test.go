package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cardnet/internal/cluster"
	"cardnet/internal/core"
	"cardnet/internal/serving"
)

// routerFleet is a real router fronting real replicas: full newServeMux
// handler trees over independent serving engines, the production wiring
// minus the TCP listeners between processes.
type routerFleet struct {
	rt       *cluster.Router
	front    *httptest.Server
	replicas []*httptest.Server
}

// newRouterFleet stands up n replicas serving m plus a router with a fast
// rollout loop (short bake so E2E tests finish quickly).
func newRouterFleet(t *testing.T, m *core.Model, n int) *routerFleet {
	t.Helper()
	f := &routerFleet{}
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		ts, _ := newTestServer(t, m, serving.Config{MaxBatch: 4})
		f.replicas = append(f.replicas, ts)
		bases[i] = ts.URL
	}
	rt, err := cluster.New(cluster.Config{
		Replicas: bases,
		Rollout: cluster.RolloutConfig{
			Bake:       600 * time.Millisecond,
			Poll:       60 * time.Millisecond,
			MinSamples: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() { f.front.Close(); rt.Close() })
	return f
}

// replicaHealthz fetches one replica's /healthz document directly.
func replicaHealthz(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// modelVersionOf reads a replica's serving-registry version.
func modelVersionOf(t *testing.T, base string) int {
	v, _ := replicaHealthz(t, base)["model_version"].(float64)
	return int(v)
}

// feedTruth posts one /feedback sample with the given actual directly to a
// replica, returning the q-error the replica computed.
func feedTruth(t *testing.T, base, xCSV string, tau int, actual float64) float64 {
	t.Helper()
	body := fmt.Sprintf(`{"x":[%s],"tau":%d,"actual":%g}`, xCSV, tau, actual)
	resp, err := http.Post(base+"/feedback", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback to %s: status %d", base, resp.StatusCode)
	}
	var doc struct {
		QError float64 `json:"qerror"`
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	return doc.QError
}

// estimateDirect asks a replica itself for its estimate of (x, tau).
func estimateDirect(t *testing.T, base, xCSV string, tau int) float64 {
	t.Helper()
	resp, err := http.Post(base+"/estimate", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"x":[%s],"tau":%d}`, xCSV, tau)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Estimate == nil {
		t.Fatalf("direct estimate from %s failed: %v", base, err)
	}
	return *er.Estimate
}

// TestRouterE2EEstimate drives real estimates through router -> replica:
// valid responses, trace IDs, and stable routing (the same query keeps
// hitting the same replica, observable because the replicas serve models
// with different weights).
func TestRouterE2EEstimate(t *testing.T) {
	// Two replicas with *different* models: a query's estimate identifies
	// which replica served it.
	mA, mB := tinyModel(3), tinyModel(17)
	tsA, _ := newTestServer(t, mA, serving.Config{MaxBatch: 4})
	tsB, _ := newTestServer(t, mB, serving.Config{MaxBatch: 4})
	rt, err := cluster.New(cluster.Config{Replicas: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer func() { front.Close(); rt.Close() }()

	xCSV := strings.Join(binXStrings(mA), ",")
	seen := map[int]float64{}
	for round := 0; round < 3; round++ {
		for tau := 0; tau <= 8; tau++ {
			resp, err := http.Post(front.URL+"/estimate", "application/json",
				bytes.NewBufferString(fmt.Sprintf(`{"x":[%s],"tau":%d}`, xCSV, tau)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tau=%d status=%d", tau, resp.StatusCode)
			}
			if resp.Header.Get("X-Trace-Id") == "" {
				t.Fatal("estimate response missing X-Trace-Id")
			}
			var er estimateResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if er.Estimate == nil || *er.Estimate < 0 {
				t.Fatalf("tau=%d bad estimate %+v", tau, er)
			}
			if prev, ok := seen[tau]; ok && prev != *er.Estimate {
				t.Fatalf("tau=%d estimate changed %v -> %v: query not pinned to one replica", tau, prev, *er.Estimate)
			}
			seen[tau] = *er.Estimate
		}
	}
}

// TestRouterE2ERolloutPromote is the canary-to-fleet happy path over real
// replicas and real model files: POST /admin/rollout canaries v2 onto one
// replica, accurate live feedback keeps its q-error at the fleet's level,
// and after the bake every replica serves v2.
func TestRouterE2ERolloutPromote(t *testing.T) {
	m := tinyModel(3)
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.gob")
	if err := saveModel(tinyModel(17), v2); err != nil {
		t.Fatal(err)
	}
	f := newRouterFleet(t, m, 3)

	resp, err := http.Post(f.front.URL+"/admin/rollout", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"path":%q}`, v2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rollout start status=%d, want 202", resp.StatusCode)
	}

	// Live traffic during the bake: every replica gets feedback whose actual
	// matches its own estimate, so q-errors sit at 1 fleet-wide.
	xCSV := strings.Join(binXStrings(m), ",")
	for i := 0; i < 5; i++ {
		for _, rep := range f.replicas {
			est := estimateDirect(t, rep.URL, xCSV, 3)
			if q := feedTruth(t, rep.URL, xCSV, 3, est); q > 1.001 {
				t.Fatalf("self-consistent feedback gave qerror %v", q)
			}
		}
		time.Sleep(30 * time.Millisecond)
	}
	f.rt.Rollout().Wait()

	st := f.rt.Rollout().Status()
	if st.State != cluster.RolloutOK {
		t.Fatalf("rollout state = %s (err %q), want ok", st.State, st.Error)
	}
	for _, rep := range f.replicas {
		if v := modelVersionOf(t, rep.URL); v != 2 {
			t.Fatalf("replica %s at model version %d after promote, want 2", rep.URL, v)
		}
	}
}

// TestRouterE2ERolloutRollback forces a regression: the canary's live
// q-errors blow up relative to the fleet, so the bake verdict restores the
// rollback model onto the canary and never touches the others.
func TestRouterE2ERolloutRollback(t *testing.T) {
	m := tinyModel(3)
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.gob")
	v2 := filepath.Join(dir, "v2.gob")
	if err := saveModel(m, v1); err != nil {
		t.Fatal(err)
	}
	if err := saveModel(tinyModel(17), v2); err != nil {
		t.Fatal(err)
	}
	f := newRouterFleet(t, m, 3)

	resp, err := http.Post(f.front.URL+"/admin/rollout", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"path":%q,"rollback_path":%q}`, v2, v1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rollout start status=%d, want 202", resp.StatusCode)
	}
	canary := f.rt.Rollout().Status().Canary

	// The canary's production feedback disagrees wildly with its estimates;
	// the rest of the fleet stays accurate.
	xCSV := strings.Join(binXStrings(m), ",")
	for i := 0; i < 5; i++ {
		for _, rep := range f.replicas {
			if rep.URL == canary {
				feedTruth(t, rep.URL, xCSV, 3, 1e9)
				continue
			}
			est := estimateDirect(t, rep.URL, xCSV, 3)
			feedTruth(t, rep.URL, xCSV, 3, est)
		}
		time.Sleep(30 * time.Millisecond)
	}
	f.rt.Rollout().Wait()

	st := f.rt.Rollout().Status()
	if st.State != cluster.RolloutRolledBack {
		t.Fatalf("rollout state = %s (err %q), want rolled-back", st.State, st.Error)
	}
	if len(st.Promoted) != 0 {
		t.Fatalf("replicas promoted during a rollback: %v", st.Promoted)
	}
	for _, rep := range f.replicas {
		v := modelVersionOf(t, rep.URL)
		if rep.URL == canary {
			if v != 3 { // v2 canary swap + v1 rollback swap
				t.Fatalf("canary at model version %d, want 3 (canaried then rolled back)", v)
			}
			continue
		}
		if v != 1 {
			t.Fatalf("non-canary %s at model version %d during rollback, want 1", rep.URL, v)
		}
	}
}

// TestRunRouterRejectsEmptyFleet checks the mode's flag validation.
func TestRunRouterRejectsEmptyFleet(t *testing.T) {
	if err := runRouter(":0", routerSettings{journalPath: "off"}); err == nil ||
		!strings.Contains(err.Error(), "-replicas") {
		t.Fatalf("err = %v, want a -replicas usage error", err)
	}
}
