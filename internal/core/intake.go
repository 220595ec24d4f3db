// The intake: every submission — a POST /v1/jobs or /v1/jobs/batch, a
// dashboard form, an embedded Submit or SubmitAndWait — enters the cluster
// through QRIO.Submit and passes the same gates, in order:
//
//  1. the tenant is defaulted and the request validated;
//  2. a draining orchestrator takes no new work (DrainingError, 503);
//  3. the tenant's token bucket bounds its arrival rate
//     (RateLimitedError, 429 with Retry-After);
//  4. the circuit is parsed once, for its width;
//  5. a job no node can ever hold is refused (sched.UnschedulableError,
//     422);
//  6. an over-quota tenant is refused before any expensive work
//     (state.QuotaExceededError, 429);
//  7. the name is claimed across the hot store, the archive and the
//     submissions in flight (store.ErrExists, 409), so one submission at
//     a time owns a name's metadata;
//  8. the metadata goes to the Meta Server;
//  9. the Master Server containerises the job and state.SubmitJob stores
//     it; if it refuses (the exact quota gate, an archived name), the
//     metadata is dropped again, so Meta holds only stored jobs' specs.
//
// Step 6 is a pre-check: state.SubmitJob re-checks the quota and creates
// the job under its own per-tenant gate, and that is the one exact quota
// gate.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"qrio/internal/clock"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
	"qrio/internal/httpx"
	"qrio/internal/master"
	"qrio/internal/meta"
	"qrio/internal/quantum/qasm"
	"qrio/internal/sched"
)

// DrainingError refuses a submission to an orchestrator that began
// draining (BeginDrain): HTTP 503 with the draining code. Reads and
// watches keep working through the drain.
type DrainingError struct{}

func (e *DrainingError) Error() string {
	return "core: orchestrator is draining — submissions are not accepted"
}

// HTTPStatus implements httpx.StatusCoder.
func (e *DrainingError) HTTPStatus() (int, string) { return 503, httpx.CodeDraining }

// RateLimitedError refuses a submission over its tenant's token-bucket
// arrival rate: HTTP 429 with the rate_limited code and a Retry-After hint
// of when the bucket next refills a full token.
type RateLimitedError struct {
	Tenant string
	Wait   time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("core: tenant %s over submission rate limit (retry in %s)",
		e.Tenant, e.Wait.Round(time.Millisecond))
}

// HTTPStatus implements httpx.StatusCoder.
func (e *RateLimitedError) HTTPStatus() (int, string) { return 429, httpx.CodeRateLimited }

// RetryAfter implements httpx.RetryAfterer.
func (e *RateLimitedError) RetryAfter() time.Duration { return e.Wait }

// Submit is the one intake (see the file comment for its gates). It
// returns the job as created, at its create version.
func (q *QRIO) Submit(req master.SubmitRequest) (api.QuantumJob, error) {
	if req.Tenant == "" {
		req.Tenant = api.DefaultTenant
	}
	if err := req.Validate(); err != nil {
		return api.QuantumJob{}, err
	}
	if q.Draining() {
		return api.QuantumJob{}, &DrainingError{}
	}
	if err := q.limiter.allow(req.Tenant, q.State.RateLimitFor(req.Tenant)); err != nil {
		return api.QuantumJob{}, err
	}
	circ, err := qasm.ParseShared(req.QASM)
	if err != nil {
		return api.QuantumJob{}, fmt.Errorf("core: job %s circuit rejected: %w", req.JobName, err)
	}
	minQubits := max(req.Requirements.MinQubits, circ.NumQubits)
	if err := q.checkSchedulable(req, minQubits); err != nil {
		return api.QuantumJob{}, err
	}
	shots := req.Shots
	if shots <= 0 {
		shots = api.DefaultShots // priced as the stored job will be
	}
	if err := q.State.CheckTenantQuota(req.Tenant, api.EstimateQubitSeconds(minQubits, shots)); err != nil {
		return api.QuantumJob{}, err
	}
	if err := q.claim(req.JobName); err != nil {
		return api.QuantumJob{}, err
	}
	defer q.unclaim(req.JobName)
	if err := q.uploadMeta(meta.JobMeta{
		JobName:        req.JobName,
		Strategy:       req.Strategy,
		TargetFidelity: req.TargetFidelity,
		CircuitQASM:    req.QASM,
		TopologyQASM:   req.TopologyQASM,
	}); err != nil {
		return api.QuantumJob{}, err
	}
	job, err := q.Master.Submit(req)
	if err != nil {
		// No job was created, and the claim still owns the name.
		q.Meta.DropJobMeta(req.JobName)
	}
	return job, err
}

// uploadMeta stores a job's strategy metadata in the Meta Server in Table
// 1's shape: topology uploads carry only the topology file.
func (q *QRIO) uploadMeta(m meta.JobMeta) error {
	if m.Strategy == api.StrategyTopology {
		m.CircuitQASM = ""
		m.TargetFidelity = 0
	}
	return q.Meta.PutJobMeta(m)
}

// staticFilters are the fleet-invariant filters: a job no node can ever
// satisfy on published device characteristics is refused at intake
// instead of parking forever in the queue. Dynamic conditions (busy slots,
// committed resources) are left out — those clear as the fleet drains.
var staticFilters = sched.Framework{Filters: []sched.FilterPlugin{sched.QubitCount{}, sched.Characteristics{}}}

// checkSchedulable runs the static filters for one request at the
// circuit-derived qubit demand the stored job will carry (a 40-qubit
// circuit never fits a 27-qubit fleet, even with no explicit MinQubits).
// It stops at the first node that passes, copying none; only a rejection
// lists the fleet, to say why each node refused.
func (q *QRIO) checkSchedulable(req master.SubmitRequest, minQubits int) error {
	reqs := req.Requirements
	reqs.MinQubits = minQubits
	probe := api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: req.JobName},
		Spec:       api.JobSpec{Requirements: reqs},
	}
	fits := false
	q.State.Nodes.Range(func(n api.Node, _ int64) bool {
		fits = staticFilters.Reject(probe, n) == ""
		return !fits
	})
	if fits {
		return nil
	}
	// An empty fleet rejects nothing: it queues jobs until vendors register.
	feasible, rejected := staticFilters.FilterNodes(probe, q.State.Nodes.List())
	if len(feasible) == 0 && len(rejected) > 0 {
		return &sched.UnschedulableError{Job: req.JobName, Rejected: rejected}
	}
	return nil
}

// claim reserves a name for one submission: it fails with store.ErrExists
// while a job of that name is stored, archived, or being submitted.
func (q *QRIO) claim(name string) error {
	q.claimMu.Lock()
	defer q.claimMu.Unlock()
	if q.claimed[name] || q.State.Jobs.Peek(name, func(api.QuantumJob, int64) {}) || q.State.Archived.Has(name) {
		return fmt.Errorf("core: %w", store.ErrExists{Name: name})
	}
	q.claimed[name] = true
	return nil
}

// unclaim ends a submission's claim: its job is stored or refused.
func (q *QRIO) unclaim(name string) {
	q.claimMu.Lock()
	delete(q.claimed, name)
	q.claimMu.Unlock()
}

// maxIdleBuckets bounds the limiter map: past this, buckets that have
// fully refilled (indistinguishable from fresh ones) are pruned.
const maxIdleBuckets = 1024

// rateLimiter holds per-tenant token buckets. Time comes from the
// cluster's clock so the chaos harness drives refills virtually. Limits
// resolve through state.RateLimitFor — a live TenantConfig override wins
// over the static policy — and unlimited tenants hold no bucket.
type rateLimiter struct {
	clock   clock.Clock
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// allow charges one submission against the tenant's bucket. A nil
// return admits; otherwise the *RateLimitedError carries the time until
// a full token refills. Limits hot-reload: the bucket re-reads rate and
// burst on every call, so an operator override applies to the very next
// submission.
func (l *rateLimiter) allow(tenant string, limit api.TenantRateLimit) error {
	if limit.Unlimited() {
		l.mu.Lock()
		delete(l.buckets, tenant) // forget history from a stricter past limit
		l.mu.Unlock()
		return nil
	}
	burst := float64(limit.Burst)
	if burst < 1 {
		burst = math.Max(1, math.Ceil(limit.SubmitPerSecond))
	}
	now := clock.Now(l.clock)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buckets == nil {
		l.buckets = make(map[string]*bucket)
	}
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxIdleBuckets {
			l.prune(now)
		}
		b = &bucket{tokens: burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * limit.SubmitPerSecond
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / limit.SubmitPerSecond * float64(time.Second))
	return &RateLimitedError{Tenant: tenant, Wait: wait}
}

// prune drops buckets idle long enough to have refilled completely (a
// fresh bucket behaves identically), under l.mu.
func (l *rateLimiter) prune(now time.Time) {
	for t, b := range l.buckets {
		if now.Sub(b.last) > time.Minute {
			delete(l.buckets, t)
		}
	}
}
