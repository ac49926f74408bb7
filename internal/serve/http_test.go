package serve

import (
	"context"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil, Config{})
	if err := s.Attach("sq"); err != nil {
		t.Fatal(err)
	}
	ingestUniform(t, s, "sq", 640, 9)
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentType {
		t.Errorf("content type %q, want %q", ct, contentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every documented family is present with a TYPE header, and every
	// sample line parses.
	for _, family := range []string{
		"ada_serve_lookups_total", "ada_serve_batches_total",
		"ada_serve_dropped_batches_total", "ada_serve_batch_seconds",
		"ada_serve_queue_depth", "ada_serve_rounds_total",
		"ada_serve_rounds_suppressed_total", "ada_serve_tcam_writes_total",
		"ada_serve_drift_distance", "ada_serve_error_estimate",
		"ada_serve_audits_total", "ada_serve_degraded", "ada_serve_tenants",
		"ada_serve_ticks_total", "ada_lookup_cache_hits_total",
		"ada_lookup_cache_misses_total", "ada_lookup_cache_invalidations_total",
		"ada_lookup_cache_bypassed_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if !strings.Contains(text, `ada_serve_lookups_total{tenant="sq"} 640`) {
		t.Errorf("ingested lookups not visible in:\n%s", text)
	}
	// The test cluster arms the lookup cache, so the ingest above must have
	// driven live cache traffic into the exposition, not just the TYPE
	// headers. Every calculation lookup reaches the cache and is either
	// probed (a hit or a miss) or forwarded while the cache stands aside, so
	// hits + misses + bypassed account exactly the 640 ingested samples.
	cm := regexp.MustCompile(`ada_lookup_cache_(hits|misses|bypassed)_total\{tenant="sq"\} (\d+)`)
	total, series := 0, 0
	for _, m := range cm.FindAllStringSubmatch(text, -1) {
		v, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("unparseable cache counter %q", m[0])
		}
		total += v
		series++
	}
	if series != 3 || total != 640 {
		t.Errorf("cache hits+misses+bypassed = %d over %d series, want 640 over 3 in:\n%s", total, series, text)
	}
}

func TestHealthzFlipsWithDegradedMode(t *testing.T) {
	s, _ := newTestServer(t, nil, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(); code != 200 || body != "ok\n" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}
	// Shed-heavy window → degraded → 503.
	s.winDropped.Add(100)
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != 503 || body != "degraded\n" {
		t.Fatalf("degraded /healthz = %d %q", code, body)
	}
	// Idle window recovers.
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(); code != 200 {
		t.Fatalf("recovered /healthz = %d", code)
	}
}
