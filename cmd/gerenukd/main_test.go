package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// TestRequestValidation pins the input edges of the submission API:
// malformed integers and non-positive weights answer 400, methods other
// than POST on the state-changing endpoints answer 405, and neither
// enqueues a job or configures a tenant.
func TestRequestValidation(t *testing.T) {
	svc := cluster.New(cluster.Config{Workers: 1})
	defer svc.Close()
	d := &daemon{svc: svc, base: bench.Quick(), jobs: make(map[string]*cluster.Job), quit: make(chan struct{})}
	mux := http.NewServeMux()
	d.routes(mux)

	cases := []struct {
		method, target string
		want           int
	}{
		{"POST", "/tenant?name=bob&weight=2&quota=-1&depth=4", http.StatusOK},
		{"POST", "/submit?tenant=a&app=PR&chaos=abc", http.StatusBadRequest},
		{"POST", "/submit?tenant=a&app=PR&memory=x", http.StatusBadRequest},
		{"POST", "/submit?tenant=a&app=PR&chaos=", http.StatusBadRequest},
		{"GET", "/submit?tenant=a&app=PR", http.StatusMethodNotAllowed},
		{"POST", "/tenant?name=bob&weight=0", http.StatusBadRequest},
		{"POST", "/tenant?name=bob&weight=-3", http.StatusBadRequest},
		{"POST", "/tenant?name=bob&weight=x", http.StatusBadRequest},
		{"POST", "/tenant?name=bob&quota=x", http.StatusBadRequest},
		{"POST", "/tenant?name=bob&weight=5&depth=x", http.StatusBadRequest},
		{"GET", "/tenant?name=bob&weight=7", http.StatusMethodNotAllowed},
		{"GET", "/cancel?id=nope", http.StatusMethodNotAllowed},
		{"GET", "/quitz", http.StatusMethodNotAllowed},
		{"POST", "/tenant?name=carol", http.StatusOK},
		{"POST", "/cancel?id=nope", http.StatusNotFound},
		{"GET", "/jobs", http.StatusOK},
		{"POST", "/submit?tenant=a&app=PR&chaos=0&memory=1024&wait=1", http.StatusOK},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d: %s", tc.method, tc.target, rec.Code, tc.want, rec.Body)
		}
	}
	if n := len(d.jobs); n != 1 {
		t.Errorf("%d jobs enqueued, want 1 (only the well-formed POST)", n)
	}
	if w := weight(svc, "bob"); w != 2 {
		t.Errorf("bob's weight = %d, want 2 (rejected requests must not configure)", w)
	}
}

func weight(svc *cluster.Service, tenant string) int {
	for _, ts := range svc.Status() {
		if ts.Tenant == tenant {
			return ts.Weight
		}
	}
	return 0
}
