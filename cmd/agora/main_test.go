package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"

	"repro/internal/obs"
)

// TestObsRoutes serves the default mux as -metrics-addr does and checks
// which paths answer: the observability surface registerObs and the
// expvar and pprof imports register, and nothing else under /debug.
func TestObsRoutes(t *testing.T) {
	registerObs(obs.PromHandler(func() obs.Snapshot { return obs.Snapshot{Frames: 1} }),
		func() []agora.Incident { return nil })
	srv := httptest.NewServer(http.DefaultServeMux)
	defer srv.Close()

	for path, want := range map[string]int{
		"/metrics":               http.StatusOK,
		"/debug/incidents":       http.StatusOK,
		"/debug/vars":            http.StatusOK,
		"/debug/pprof/":          http.StatusOK,
		"/debug/rates":           http.StatusNotFound,
		"/debug/reset-highwater": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
