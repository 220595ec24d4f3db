package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qrio/internal/core"
	"qrio/internal/httpx"
)

// TestFlowControlShed: the global in-flight cap sheds excess concurrent
// requests with the typed 503 envelope and a Retry-After, and recovers
// as soon as slots free.
func TestFlowControlShed(t *testing.T) {
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	})
	s := &Server{MaxInFlight: 2}
	h := s.flowControl(slow)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("occupying request got %d", rec.Code)
			}
		}()
	}
	// Both slots are held once the handlers park on release; the counter
	// is then stable at 2.
	for s.inflight.Load() != 2 {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("third concurrent request got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var env httpx.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != httpx.CodeOverloaded {
		t.Fatalf("shed envelope = %s (err %v), want code overloaded", rec.Body.String(), err)
	}

	close(release)
	wg.Wait()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery request got %d, want 200", rec.Code)
	}
}

// TestFlowControlUncapped: MaxInFlight 0 never sheds and skips the
// counter entirely.
func TestFlowControlUncapped(t *testing.T) {
	s := &Server{}
	h := s.flowControl(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("uncapped request got %d", rec.Code)
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("uncapped path touched the in-flight counter: %d", s.inflight.Load())
	}
}

// TestErrorShapes pins each refusal's HTTP mapping.
func TestErrorShapes(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{&core.RateLimitedError{Tenant: "a", Wait: time.Second}, 429, httpx.CodeRateLimited},
		{&OverloadedError{InFlight: 9, Max: 8}, 503, httpx.CodeOverloaded},
		{&core.DrainingError{}, 503, httpx.CodeDraining},
	}
	for _, c := range cases {
		var sc httpx.StatusCoder
		if !errors.As(c.err, &sc) {
			t.Fatalf("%T does not implement StatusCoder", c.err)
		}
		status, code := sc.HTTPStatus()
		if status != c.status || code != c.code {
			t.Errorf("%T → (%d, %s), want (%d, %s)", c.err, status, code, c.status, c.code)
		}
	}
	var ra httpx.RetryAfterer
	if !errors.As(error(&core.RateLimitedError{Wait: 7 * time.Second}), &ra) || ra.RetryAfter() != 7*time.Second {
		t.Fatal("RateLimitedError does not surface its wait as Retry-After")
	}
}
