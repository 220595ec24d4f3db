// Package client is the official Go client for QRIO's unified /v1
// gateway. It exposes the full job lifecycle over HTTP: Submit (single
// and batch), Get, List (field filters and pagination), Cancel, Logs,
// Events, Watch (server-sent events) and Wait (watch-driven, no polling),
// plus node registry and Meta-Server scoring access.
//
// Every method takes a context for per-request deadlines and
// cancellation. Errors returned by the gateway are *APIError values
// carrying the envelope's machine-readable code; branch with the
// IsNotFound / IsConflict / IsInvalid / IsUnschedulable helpers instead
// of matching message strings:
//
//	c := client.New("http://localhost:8080")
//	job, err := c.Submit(ctx, client.SubmitRequest{...})
//	if client.IsConflict(err) { /* name already taken */ }
//	job, err = c.Wait(ctx, job.Name)  // event-driven, not a poll loop
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/httpx"
	"qrio/internal/master"
	"qrio/internal/meta"
	"qrio/internal/obs"
)

// Re-exported wire types, so downstream code never names an internal
// package.
type (
	// SubmitRequest is a complete user job submission.
	SubmitRequest = master.SubmitRequest
	// Job is a quantum job with its spec and live status.
	Job = api.QuantumJob
	// JobPhase is a job lifecycle phase.
	JobPhase = api.JobPhase
	// Node is a cluster node.
	Node = api.Node
	// Result is a finished job's execution record.
	Result = api.Result
	// Event is one observability event.
	Event = api.Event
	// Backend is a vendor device calibration.
	Backend = device.Backend
	// JobList is a page of jobs plus the continuation token.
	JobList = gateway.JobList
	// BatchSubmitItem is one per-job outcome of a batch submission.
	BatchSubmitItem = gateway.BatchSubmitItem
	// ScoreResult is one backend's score in a batch scoring response.
	ScoreResult = meta.BatchResult
	// TenantStatus is one tenant's usage, fair-share weight and quota as
	// reported by GET /v1/tenants.
	TenantStatus = gateway.TenantStatus
	// TenantConfig is a tenant's live weight + quota override, as returned
	// by SetTenant.
	TenantConfig = api.TenantConfig
	// TenantQuota bounds a tenant's admitted-but-unfinished work.
	TenantQuota = api.TenantQuota
	// SetTenantRequest is the body of PUT /v1/tenants/{name}.
	SetTenantRequest = gateway.SetTenantRequest
	// DurabilityStats is the GET /v1/admin/durability response: WAL lag,
	// snapshot age, boot replay statistics and latched errors.
	DurabilityStats = durability.Stats
	// SnapshotResponse is the POST /v1/admin/snapshot response.
	SnapshotResponse = gateway.SnapshotResponse
	// HealthResponse is the GET /v1/health payload: typed per-component
	// statuses (store, scheduler, durability, archive, breaker) plus the
	// overall roll-up.
	HealthResponse = gateway.HealthResponse
	// MetricFamily is one parsed metric family from GET /v1/metrics.
	MetricFamily = obs.Family
	// MetricSample is one sample within a parsed metric family.
	MetricSample = obs.Sample
)

// APIError is a structured gateway error: the HTTP status plus the
// envelope's machine-readable code and message. Throttled responses
// (429 rate_limited / quota_exceeded, 503 overloaded) also carry the
// server's Retry-After delay.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's Retry-After header as a duration (0 when
	// the response carried none): how long to wait before the request
	// could succeed.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("qrio: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// code extracts the envelope code from an error chain ("" when the error
// is not an APIError).
func code(err error) string {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code
	}
	return ""
}

// IsNotFound reports whether err is the gateway's not_found error.
func IsNotFound(err error) bool { return code(err) == httpx.CodeNotFound }

// IsConflict reports whether err is the gateway's conflict error
// (duplicate submission, cancel of an already-terminal job).
func IsConflict(err error) bool { return code(err) == httpx.CodeConflict }

// IsInvalid reports whether err is the gateway's invalid error
// (malformed or rejected request).
func IsInvalid(err error) bool { return code(err) == httpx.CodeInvalid }

// IsUnschedulable reports whether err is the gateway's unschedulable
// error (no node in the fleet can ever satisfy the job's requirements).
func IsUnschedulable(err error) bool { return code(err) == httpx.CodeUnschedulable }

// IsQuotaExceeded reports whether err is the gateway's quota_exceeded
// error (the tenant is over its pending/active/qubit-second admission
// quota; retry after in-flight work drains).
func IsQuotaExceeded(err error) bool { return code(err) == httpx.CodeQuotaExceeded }

// IsCompacted reports whether err is the gateway's compacted error (410):
// the watch resume token's position has aged out of the server's version
// journal, so an exact replay is impossible — reconnect without a token
// to get a fresh SYNC snapshot instead.
func IsCompacted(err error) bool { return code(err) == httpx.CodeCompacted }

// IsRateLimited reports whether err is a gateway throttle (HTTP 429 —
// either the token-bucket rate_limited rejection or the admission
// quota_exceeded rejection). Pair with RetryAfter(err) to pace the
// retry.
func IsRateLimited(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

// IsOverloaded reports whether err is the gateway's overloaded error
// (503): the global in-flight bound shed the request — back off and
// retry.
func IsOverloaded(err error) bool { return code(err) == httpx.CodeOverloaded }

// IsDraining reports whether err is the gateway's draining error (503):
// the server is shutting down gracefully and refusing new intake.
func IsDraining(err error) bool { return code(err) == httpx.CodeDraining }

// RetryAfter extracts the server's Retry-After delay from a gateway
// error (0 when err is not an APIError or carried no header).
func RetryAfter(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// Client talks to a /v1 gateway.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry is the client's retry policy (New installs
	// httpx.DefaultRetry): idempotent calls (GET/PUT/DELETE) are retried
	// on transport errors and transient statuses (429/502/503/504) with
	// full-jitter backoff, honouring the server's Retry-After. Job
	// submission is POST and NOT retried by default; QRIO submissions are
	// name-deduplicated server-side, so opting in with
	// Retry.RetryNonIdempotent = true is safe (a replayed accepted submit
	// returns a conflict, which callers can treat as success).
	Retry httpx.RetryPolicy
}

// New builds a client for a gateway base URL (the daemon address; the /v1
// prefix is implied). The embedded timeout is a backstop for regular
// calls — use contexts for per-request deadlines. Watch streams use a
// separate, timeout-free connection.
func New(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    httpx.NewClient(0, nil),
		Retry:   httpx.DefaultRetry,
	}
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return httpx.DoJSONRetry(ctx, c.HTTP, c.Retry, method, c.BaseURL+path, in, out,
		func(status int, code, msg string, retryAfter time.Duration) error {
			if msg == "" {
				msg = fmt.Sprintf("%s %s failed", method, path)
			}
			if code == "" {
				code = httpx.CodeInternal
			}
			return &APIError{Status: status, Code: code, Message: msg, RetryAfter: retryAfter}
		})
}

// Healthy pings the gateway. It is the boolean form of Health — any 200
// answer counts, degraded or not.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/health", nil, nil)
}

// Health fetches the typed health payload: per-component statuses
// (store, scheduler, durability, archive, scoring breaker), the drain
// flag and the overall roll-up.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out)
	return out, err
}

// Metrics fetches the raw Prometheus text exposition from GET
// /v1/metrics. On a deployment without a metrics registry the gateway
// answers 404 and this returns a not_found *APIError (IsNotFound).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		code, msg, ok := httpx.DecodeErrorBody(body)
		if !ok {
			code = httpx.CodeInternal
			msg = fmt.Sprintf("GET /v1/metrics failed with HTTP %d", resp.StatusCode)
		}
		return "", &APIError{Status: resp.StatusCode, Code: code, Message: msg}
	}
	return string(body), nil
}

// MetricFamilies fetches GET /v1/metrics and parses it into typed
// families (name order preserved from the exposition, which the server
// sorts). Use obs.FindFamily-style lookups via the returned slice.
func (c *Client) MetricFamilies(ctx context.Context) ([]MetricFamily, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(text)
}

// Submit sends one job through the gateway (metadata upload,
// containerisation and cluster admission happen server-side).
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &job)
	return job, err
}

// SubmitBatch sends many jobs in one round trip. The response is aligned
// with the request order; each item carries either the accepted job or
// the structured error that rejected it, so one bad job never fails the
// batch.
func (c *Client) SubmitBatch(ctx context.Context, reqs []SubmitRequest) ([]BatchSubmitItem, error) {
	var items []BatchSubmitItem
	err := c.do(ctx, http.MethodPost, "/v1/jobs/batch", reqs, &items)
	return items, err
}

// ListOptions are the GET /v1/jobs field filters and pagination knobs.
// Zero values mean "no constraint".
type ListOptions struct {
	// Phase filters on the job lifecycle phase (e.g. "Running").
	Phase JobPhase
	// Node filters on the bound node name.
	Node string
	// Strategy filters on the scheduling strategy ("fidelity"/"topology").
	Strategy string
	// Tenant filters on the owning tenant ("default" matches pre-tenancy
	// jobs too).
	Tenant string
	// Archived merges the archive tier into the results: terminal jobs the
	// server's retention policy has moved out of the hot store. Continue
	// tokens paginate seamlessly across the hot/archive boundary.
	Archived bool
	// Limit caps the page size (0 = everything).
	Limit int
	// Continue resumes listing after a previous page's token.
	Continue string
}

// List fetches jobs matching the options, name-ordered. When the
// response's Continue token is non-empty, pass it back to fetch the next
// page.
func (c *Client) List(ctx context.Context, opts ListOptions) (JobList, error) {
	q := url.Values{}
	if opts.Phase != "" {
		q.Set("phase", string(opts.Phase))
	}
	if opts.Node != "" {
		q.Set("node", opts.Node)
	}
	if opts.Strategy != "" {
		q.Set("strategy", opts.Strategy)
	}
	if opts.Tenant != "" {
		q.Set("tenant", opts.Tenant)
	}
	if opts.Archived {
		q.Set("archived", "true")
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Continue != "" {
		q.Set("continue", opts.Continue)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out JobList
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Get fetches one job.
func (c *Client) Get(ctx context.Context, name string) (Job, error) {
	var out Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(name), nil, &out)
	return out, err
}

// Cancel requests cancellation of a job through the full lifecycle:
// pending jobs leave the queue, scheduled jobs give their slot back, and
// running jobs have their container aborted on the node. It returns the
// job as of the request; Wait observes the final JobCancelled phase.
// Cancelling an already-terminal job returns a conflict error.
func (c *Client) Cancel(ctx context.Context, name string) (Job, error) {
	var out Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(name), nil, &out)
	return out, err
}

// Logs fetches a finished job's execution result.
func (c *Client) Logs(ctx context.Context, name string) (Result, error) {
	var out Result
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(name)+"/logs", nil, &out)
	return out, err
}

// Events lists a job's event trail, oldest first.
func (c *Client) Events(ctx context.Context, name string) ([]Event, error) {
	var out []Event
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(name)+"/events", nil, &out)
	return out, err
}

// Tenants lists every tenant's live usage (pending/active jobs,
// qubit-seconds in flight), fair-share weight and governing quota.
func (c *Client) Tenants(ctx context.Context) ([]TenantStatus, error) {
	var out []TenantStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// SetTenant hot-reloads a tenant's fair-share weight and quota in one
// atomic update — no restart, effective from the next scheduling pass and
// admission check. The override fully replaces the server's static
// configuration for that tenant (weight 0 = default weight 1; zero quota
// fields = unlimited) and is durable when the server runs with -data-dir.
// A rejected configuration returns an invalid (422) error.
func (c *Client) SetTenant(ctx context.Context, name string, req SetTenantRequest) (TenantConfig, error) {
	var out TenantConfig
	err := c.do(ctx, http.MethodPut, "/v1/tenants/"+url.PathEscape(name), req, &out)
	return out, err
}

// Durability fetches the admin durability status: whether durable state is
// enabled, WAL records/bytes accumulated since the last snapshot (the
// replay debt of a crash right now), snapshot age, the boot's replay
// statistics and any latched WAL/spill errors.
func (c *Client) Durability(ctx context.Context) (DurabilityStats, error) {
	var out DurabilityStats
	err := c.do(ctx, http.MethodGet, "/v1/admin/durability", nil, &out)
	return out, err
}

// Snapshot asks the server to take a compacted snapshot immediately —
// useful before a planned restart to make the next boot's replay instant.
// Returns the new WAL generation. On an in-memory deployment it returns
// an invalid (422) error.
func (c *Client) Snapshot(ctx context.Context) (SnapshotResponse, error) {
	var out SnapshotResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/snapshot", nil, &out)
	return out, err
}

// Nodes lists the cluster's nodes.
func (c *Client) Nodes(ctx context.Context) ([]Node, error) {
	var out []Node
	err := c.do(ctx, http.MethodGet, "/v1/nodes", nil, &out)
	return out, err
}

// Node fetches one node.
func (c *Client) Node(ctx context.Context, name string) (Node, error) {
	var out Node
	err := c.do(ctx, http.MethodGet, "/v1/nodes/"+url.PathEscape(name), nil, &out)
	return out, err
}

// RegisterNode adds a vendor backend to the cluster (node, Meta-Server
// copy and kubelet).
func (c *Client) RegisterNode(ctx context.Context, b *Backend) (Node, error) {
	var out Node
	err := c.do(ctx, http.MethodPost, "/v1/nodes", b, &out)
	return out, err
}

// DeleteNode removes a node.
func (c *Client) DeleteNode(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/nodes/"+url.PathEscape(name), nil, nil)
}

// Score asks the Meta Server to score a job against one backend.
func (c *Client) Score(ctx context.Context, jobName, backendName string) (float64, error) {
	q := url.Values{"job": {jobName}, "backend": {backendName}}
	var out map[string]float64
	if err := c.do(ctx, http.MethodGet, "/v1/score?"+q.Encode(), nil, &out); err != nil {
		return 0, err
	}
	score, ok := out["score"]
	if !ok {
		return 0, fmt.Errorf("qrio: malformed score response %v", out)
	}
	return score, nil
}

// ScoreBatch scores a job against many backends in one round trip (all
// nodes of the fleet, as GET /v1/nodes lists them, when backendNames is
// empty).
func (c *Client) ScoreBatch(ctx context.Context, jobName string, backendNames []string) ([]ScoreResult, error) {
	q := url.Values{"job": {jobName}}
	for _, b := range backendNames {
		q.Add("backend", b)
	}
	var out []ScoreResult
	err := c.do(ctx, http.MethodGet, "/v1/score/batch?"+q.Encode(), nil, &out)
	return out, err
}
