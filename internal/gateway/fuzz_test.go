// Fuzzers for the gateway's client-supplied tokens and bodies: the
// /v1/jobs continue/limit/archived parameters, the /v1/watch resume token
// and PUT /v1/tenants/{name}. Contract: malformed input is a 400 with the
// invalid envelope (the watch token additionally 410s once
// valid-but-stale, a well-formed but invalid tenant config 422s), and no
// input ever panics a handler.
package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/httpx"
)

// fuzzServer builds one idle orchestrator + gateway handler shared by all
// fuzz iterations (handlers are stateless across requests).
var fuzzServer = sync.OnceValues(func() (http.Handler, *core.QRIO) {
	b, err := device.UniformBackend("fuzz-dev", graph.Ring(8), 0.05, 0.005, 0.01, 500e3, 500e3)
	if err != nil {
		panic(err)
	}
	q, err := core.New(core.Config{Backends: []*device.Backend{b}})
	if err != nil {
		panic(err)
	}
	// A split keyspace so continue tokens exercise both tiers.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 12; i++ {
		fin := base.Add(time.Duration(i) * time.Second)
		j := api.QuantumJob{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("seed-%02d", i), CreatedAt: fin},
			Spec: api.JobSpec{QASM: "OPENQASM 2.0;\nqreg q[1];\nh q[0];",
				Strategy: api.StrategyFidelity, TargetFidelity: 1},
			Status: api.JobStatus{Phase: api.JobSucceeded, FinishedAt: &fin},
		}
		if _, err := q.State.Jobs.Create(j); err != nil {
			panic(err)
		}
	}
	q.State.ArchiveTerminal(time.Now(), state.RetentionPolicy{MaxTerminalCount: 6})
	return gateway.New(q).Handler(), q
})

// FuzzListContinueToken throws arbitrary continue/limit/archived values
// at GET /v1/jobs. Every response must be a well-formed 200 or a 400
// carrying the invalid envelope — never a panic, never another status.
func FuzzListContinueToken(f *testing.F) {
	f.Add("seed-03", "5", "true")
	f.Add("", "0", "false")
	f.Add("seed-08", "", "")
	f.Add("zzzz", "-1", "TRUE")
	f.Add("\x00\xff", "9999999999999999999", "bogus")
	f.Add("seed-05\n", "two", "1")
	f.Fuzz(func(t *testing.T, cont, limit, archived string) {
		handler, _ := fuzzServer()
		q := url.Values{}
		if cont != "" {
			q.Set("continue", cont)
		}
		if limit != "" {
			q.Set("limit", limit)
		}
		if archived != "" {
			q.Set("archived", archived)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // a panic fails the fuzz run
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			code, _, ok := httpx.DecodeErrorBody(rec.Body.Bytes())
			if !ok || code != httpx.CodeInvalid {
				t.Fatalf("400 without invalid envelope: %s", rec.Body.String())
			}
		default:
			t.Fatalf("status %d for continue=%q limit=%q archived=%q", rec.Code, cont, limit, archived)
		}
	})
}

// FuzzWatchResumeToken throws arbitrary resume tokens at GET /v1/watch.
// The request context is pre-cancelled so a token that opens a stream
// terminates immediately instead of serving SSE forever. Malformed
// tokens must 400 invalid; parseable-but-unreplayable ones 410 compacted;
// replayable ones 200. Nothing panics.
func FuzzWatchResumeToken(f *testing.F) {
	f.Add("j0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0-n0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0")
	f.Add("j1-n2")
	f.Add("")
	f.Add("garbage")
	f.Add("j-n")
	f.Add("j99999999999999999999-n0")
	f.Add("j1.2.3-n4.5.6")
	f.Add("j0.0-n0\x00")
	f.Fuzz(func(t *testing.T, token string) {
		handler, _ := fuzzServer()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // streams exit on first select
		q := url.Values{}
		q.Set("resume", token)
		req := httptest.NewRequest(http.MethodGet, "/v1/watch?"+q.Encode(), nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusGone:
			// OK = replayable position (empty token streams a snapshot);
			// Gone = parseable but compacted/mismatched position.
		case http.StatusBadRequest:
			code, _, ok := httpx.DecodeErrorBody(firstJSONLine(rec))
			if !ok || code != httpx.CodeInvalid {
				t.Fatalf("400 without invalid envelope: %s", rec.Body.String())
			}
		default:
			t.Fatalf("status %d for resume=%q", rec.Code, token)
		}
	})
}

// FuzzTenantConfigPut throws arbitrary tenant names and bodies at
// PUT /v1/tenants/{name}. Every answer must be a 200, a 400 (malformed
// body) or a 422 (invalid name or bounds), the refusals with the invalid
// envelope; a 200's config must read back the same through GET
// /v1/tenants. Nothing panics.
func FuzzTenantConfigPut(f *testing.F) {
	f.Add("alice", []byte(`{"weight":5,"quota":{"maxPending":2,"maxActive":1,"maxQubitSeconds":3.5}}`))
	f.Add("bob-2", []byte(`{"rateLimit":{"submitPerSecond":0.25,"burst":3}}`))
	f.Add("carol", []byte(`null`))
	f.Add("bad name!", []byte(`{"weight":1}`))
	f.Add("dave", []byte(`{"weight":-3}`))
	f.Add("erin", []byte(`{"weight":"heavy"}`))
	f.Add("frank", []byte(`{"quota":{"maxQubitSeconds":1e400}}`))
	f.Add("a/b", []byte(`{`))
	f.Fuzz(func(t *testing.T, name string, body []byte) {
		if name == "" || name == "." || name == ".." {
			return // the mux never routes these to the handler
		}
		handler, _ := fuzzServer()
		req := httptest.NewRequest(http.MethodPut, "/v1/tenants/"+url.PathEscape(name), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // a panic fails the fuzz run
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			code, _, ok := httpx.DecodeErrorBody(rec.Body.Bytes())
			if !ok || code != httpx.CodeInvalid {
				t.Fatalf("%d without invalid envelope: %s", rec.Code, rec.Body.String())
			}
			return
		default:
			t.Fatalf("status %d for name=%q body=%q", rec.Code, name, body)
		}
		var cfg api.TenantConfig
		if err := json.Unmarshal(rec.Body.Bytes(), &cfg); err != nil || cfg.Name != name {
			t.Fatalf("200 body for %q is not its config (%v): %s", name, err, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants", nil))
		var rows []gateway.TenantStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/tenants: %d %v", rec.Code, err)
		}
		wantWeight := max(cfg.Weight, 1)
		for _, row := range rows {
			if row.Tenant != name {
				continue
			}
			if row.Weight != wantWeight || row.Quota != cfg.Quota || row.RateLimit != cfg.RateLimit {
				t.Fatalf("tenant %q reads back %+v, PUT answered %+v", name, row, cfg)
			}
			return
		}
		t.Fatalf("tenant %q missing from GET /v1/tenants", name)
	})
}

// firstJSONLine returns the recorder body (error envelopes are a single
// JSON object; SSE bodies never reach this helper).
func firstJSONLine(rec *httptest.ResponseRecorder) []byte {
	raw, _ := io.ReadAll(rec.Result().Body)
	return raw
}
