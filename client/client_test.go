package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qrio/internal/cluster/api"
)

func TestErrorHelpers(t *testing.T) {
	cases := []struct {
		code string
		pred func(error) bool
	}{
		{"not_found", IsNotFound},
		{"conflict", IsConflict},
		{"invalid", IsInvalid},
		{"unschedulable", IsUnschedulable},
	}
	for _, c := range cases {
		err := error(&APIError{Status: 400, Code: c.code, Message: "x"})
		for _, other := range cases {
			if got := other.pred(err); got != (other.code == c.code) {
				t.Errorf("Is%s(%s error) = %v", other.code, c.code, got)
			}
		}
		// Helpers survive wrapping.
		if !c.pred(fmt.Errorf("outer: %w", err)) {
			t.Errorf("Is%s lost through wrapping", c.code)
		}
		if c.pred(errors.New("plain")) {
			t.Errorf("Is%s matched a plain error", c.code)
		}
	}
}

// TestWatchParsesSSEStream feeds the client a hand-written SSE stream —
// including keep-alive comments and an event preceding data — and checks
// the decoded notifications come out in order.
func TestWatchParsesSSEStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/watch" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": ping\n\n")
		fmt.Fprint(w, "event: job\ndata: {\"kind\":\"job\",\"type\":\"SYNC\",\"job\":{\"name\":\"a\",\"spec\":{\"qasm\":\"x\",\"strategy\":\"fidelity\"},\"status\":{\"phase\":\"Running\"}},\"version\":1}\n\n")
		fmt.Fprint(w, "event: job\ndata: {\"kind\":\"job\",\"type\":\"MODIFIED\",\"job\":{\"name\":\"a\",\"spec\":{\"qasm\":\"x\",\"strategy\":\"fidelity\"},\"status\":{\"phase\":\"Succeeded\"}},\"version\":2}\n\n")
	}))
	defer srv.Close()

	c := New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, err := c.Watch(ctx, WatchOptions{Kind: "job", Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	var got []WatchEvent
	for ev := range events {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2: %+v", len(got), got)
	}
	if got[0].Type != EventSync || got[0].Job == nil || got[0].Job.Status.Phase != api.JobRunning {
		t.Fatalf("first event wrong: %+v", got[0])
	}
	if got[1].Type != EventModified || got[1].Job.Status.Phase != api.JobSucceeded || got[1].Version != 2 {
		t.Fatalf("second event wrong: %+v", got[1])
	}
}

// TestWatchRejectedSurfacesEnvelope: a non-200 watch response becomes a
// structured APIError, not a silent dead channel.
func TestWatchRejectedSurfacesEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"invalid","message":"bad kind"}}`)
	}))
	defer srv.Close()
	_, err := New(srv.URL).Watch(context.Background(), WatchOptions{Kind: "nope"})
	if !IsInvalid(err) {
		t.Fatalf("want invalid APIError, got %v", err)
	}
}
