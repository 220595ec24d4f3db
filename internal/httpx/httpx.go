// Package httpx holds the HTTP plumbing the gateway and its clients
// share — the JSON codec helpers and the /v1 structured error envelope.
// Every error response carries a machine-readable code so clients can
// branch on the failure class instead of string-matching messages:
//
//	{"error": {"code": "not_found", "message": "store: \"bv\" not found"}}
//
// The defined codes are invalid, not_found, conflict, unschedulable,
// quota_exceeded, rate_limited, compacted, overloaded, draining and
// internal.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"qrio/internal/cluster/store"
)

// Machine-readable error codes of the /v1 envelope.
const (
	CodeInvalid       = "invalid"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeUnschedulable = "unschedulable"
	CodeQuotaExceeded = "quota_exceeded"
	CodeInternal      = "internal"
	// CodeCompacted (410 Gone) rejects a watch resume token whose position
	// has aged out of the server's version journal — the client must fall
	// back to a fresh watch (full snapshot) instead of an exact replay,
	// mirroring the Kubernetes expired-resourceVersion contract.
	CodeCompacted = "compacted"
	// CodeRateLimited (429) rejects a submission the tenant's token-bucket
	// rate limit refused; the Retry-After header says when the next token
	// arrives. Distinct from quota_exceeded: rate limits bound request
	// arrival, quotas bound admitted-but-unfinished work.
	CodeRateLimited = "rate_limited"
	// CodeOverloaded (503) sheds a request the gateway's global
	// max-in-flight bound refused — back off and retry.
	CodeOverloaded = "overloaded"
	// CodeDraining (503) rejects intake while the server is shutting down
	// gracefully; resubmit against another replica or after the restart.
	CodeDraining = "draining"
)

// MaxBodyBytes caps request and response bodies (circuits travel as QASM
// strings inside JSON, so payloads stay modest).
const MaxBodyBytes = 16 << 20

// ErrorBody is the payload inside the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the wire shape of every QRIO error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// DecodeJSON reads a bounded request body into v.
func DecodeJSON(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// RetryAfterer lets throttling error types (rate limit, quota, overload)
// tell clients when retrying could succeed; WriteError/WriteErr turn it
// into a Retry-After header on the response.
type RetryAfterer interface {
	RetryAfter() time.Duration
}

// WriteError writes the envelope with an explicit status and code. When
// the error (chain) carries a RetryAfter hint, the Retry-After header is
// set (whole seconds, rounded up, at least 1 — the HTTP delta-seconds
// form).
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	var ra RetryAfterer
	if errors.As(err, &ra) {
		if d := ra.RetryAfter(); d > 0 {
			w.Header().Set("Retry-After", FormatRetryAfter(d))
		}
	}
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// FormatRetryAfter renders a duration as HTTP delta-seconds (ceiling,
// minimum 1 — "Retry-After: 0" would invite an immediate hammer).
func FormatRetryAfter(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ParseRetryAfter reads a Retry-After header value (delta-seconds form)
// back into a duration; 0 when absent or malformed.
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// WriteErr classifies err through StatusOf and writes the envelope, using
// the fallback status/code when the error carries no known type.
func WriteErr(w http.ResponseWriter, err error, fallbackStatus int, fallbackCode string) {
	status, code := StatusOf(err)
	if status == 0 {
		status, code = fallbackStatus, fallbackCode
	}
	WriteError(w, status, code, err)
}

// StatusCoder lets domain error types declare their own HTTP status and
// envelope code without depending on this package — state.TerminalJobError
// (conflict) and sched.UnschedulableError (unschedulable) implement it.
type StatusCoder interface {
	HTTPStatus() (status int, code string)
}

// StatusOf maps QRIO's typed domain errors onto (HTTP status, code):
// store lookup errors directly, everything else through StatusCoder.
// Unknown errors return (0, "") so callers choose their own fallback.
func StatusOf(err error) (int, string) {
	var notFound store.ErrNotFound
	var exists store.ErrExists
	var coder StatusCoder
	switch {
	case errors.As(err, &notFound):
		return http.StatusNotFound, CodeNotFound
	case errors.As(err, &exists):
		return http.StatusConflict, CodeConflict
	case errors.As(err, &coder):
		return coder.HTTPStatus()
	default:
		return 0, ""
	}
}

// ErrorFunc shapes a non-2xx response into the caller's error type:
// status and the envelope's code/message (message is "" when the body
// carried no recognisable envelope), plus the response's Retry-After
// delay (0 when the header was absent).
type ErrorFunc func(status int, code, message string, retryAfter time.Duration) error

// DoJSON is the one JSON request/response round trip every QRIO HTTP
// client shares: marshal in (when non-nil), issue the request under ctx,
// bound-read the response, and unmarshal into out (when non-nil). Non-2xx
// responses have their error envelope decoded and are shaped into the
// caller's error type via onError. For automatic retries wrap the call in
// DoJSONRetry (retry.go).
func DoJSON(ctx context.Context, hc *http.Client, method, url string, in, out any,
	onError ErrorFunc) error {
	_, _, err := doJSONOnce(ctx, hc, method, url, in, out, onError)
	return err
}

// doJSONOnce performs one attempt and additionally reports the HTTP
// status (0 on transport error) and the server's Retry-After delay so
// the retry loop can classify failures and pace itself without
// unwrapping the caller-shaped error.
func doJSONOnce(ctx context.Context, hc *http.Client, method, url string, in, out any,
	onError ErrorFunc) (status int, retryAfter time.Duration, err error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return resp.StatusCode, 0, err
	}
	if resp.StatusCode >= 300 {
		code, msg, _ := DecodeErrorBody(raw)
		ra := ParseRetryAfter(resp.Header.Get("Retry-After"))
		return resp.StatusCode, ra, onError(resp.StatusCode, code, msg, ra)
	}
	if out != nil {
		return resp.StatusCode, 0, json.Unmarshal(raw, out)
	}
	return resp.StatusCode, 0, nil
}

// DecodeErrorBody parses an error response body into (code, message). It
// understands the structured envelope and falls back to the legacy
// {"error": "message"} string shape.
func DecodeErrorBody(raw []byte) (code, message string, ok bool) {
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		return env.Error.Code, env.Error.Message, true
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &legacy) == nil && legacy.Error != "" {
		return "", legacy.Error, true
	}
	return "", "", false
}
