// Package qrio is the public API of the QRIO reproduction — a Quantum
// Resource Infrastructure Orchestrator (Chakraborty et al., IISWC 2024):
// a Kubernetes-style cloud resource manager for quantum devices.
//
// A QRIO deployment manages a fleet of quantum backends (real devices in
// the paper's vision; high-fidelity simulated devices here). Users submit
// OpenQASM 2.0 circuits together with classical resource requests, device
// characteristic bounds, and one of two device-selection strategies:
//
//   - a fidelity requirement — QRIO estimates each candidate device's
//     execution fidelity with classically simulable Clifford "canary"
//     circuits and picks the closest match, or
//   - a topology requirement — QRIO scores devices by Mapomatic-style
//     subgraph matching against the user's desired qubit connectivity.
//
// The orchestrator filters devices on published calibration labels
// (qubits, average two-qubit error, T1/T2, readout, CPU/memory), ranks the
// survivors through the Meta Server, containerises the job via the Master
// Server and registry, executes it on the chosen node, and serves the
// resulting logs.
//
// # Quick start
//
//	fleet, _ := qrio.GenerateFleet(qrio.DefaultFleetSpec())
//	q, _ := qrio.New(qrio.Config{Backends: fleet})
//	q.Start()
//	defer q.Stop()
//
//	job, res, _ := q.SubmitAndWait(qrio.SubmitRequest{
//		JobName:        "bv10",
//		QASM:           myQASM,
//		Strategy:       qrio.StrategyFidelity,
//		TargetFidelity: 1.0,
//	}, time.Minute)
//	fmt.Println(job.Status.Node, res.Fidelity)
//
// # The /v1 API
//
// A deployment is served to remote users through the unified, versioned
// gateway (NewGateway; the qrio daemon mounts it at /v1): job routes
// (POST /v1/jobs and /v1/jobs/batch, GET /v1/jobs with phase/node/strategy
// filters, an archived=true history merge and limit/continue pagination,
// GET and DELETE /v1/jobs/{name}, GET /v1/jobs/{name}/logs and /events),
// node routes (GET/POST /v1/nodes, GET/DELETE /v1/nodes/{name}),
// Meta-Server scoring (GET /v1/score and /v1/score/batch) and a live
// event stream (GET /v1/watch, server-sent events fanned out from the
// cluster's broadcast hub). DELETE cancels a job at any lifecycle stage
// — pending jobs leave the queue, scheduled jobs release their slot,
// running jobs have their container aborted on the node — landing the
// terminal JobCancelled phase. /v1 is the only HTTP intake: the
// dashboard (NewVisualizer) is built over the same gateway and its form
// posts pass the same drain, rate-limit, schedulability and quota gates.
//
// Watch streams are resumable: every SSE event carries an opaque resume
// token, and GET /v1/watch?resume=<token> replays exactly the
// transitions a dropped client missed (from a bounded per-shard version
// journal) instead of re-sending the snapshot. A token whose position
// has been compacted away is answered with the 410 "compacted" code; the
// client then falls back to a fresh watch, whose connect-time SYNC
// events re-establish current state. client.WatchOptions.Reconnect turns
// that whole dance into a self-healing stream (Client.Wait and qrioctl
// watch use it).
//
// Every error response carries one structured envelope,
// {"error":{"code":...,"message":...}}, with machine-readable codes:
// "invalid" (400, malformed or rejected request), "not_found" (404),
// "conflict" (409, duplicate submission, cancelling a finished job —
// resident or archived — or a bind that lost the job),
// "node_unavailable" (409, POST /v1/bind only: the node refused, the job
// is still pending), "compacted" (410, stale watch resume token),
// "unschedulable" (422, no device in the fleet can ever satisfy the
// job's requirements), "quota_exceeded" (429, the tenant is over its
// admission quota), "rate_limited" (429, the tenant is submitting faster
// than its token-bucket arrival rate), "overloaded" (503, the gateway
// shed the request at its global in-flight cap) and "draining" (503, the
// daemon is shutting down gracefully and takes no new work). Both 429
// codes carry a Retry-After header; client.IsRateLimited, IsOverloaded,
// IsDraining and RetryAfter expose them programmatically.
//
// # Resilience
//
// Dependency calls are defended end to end. The shared HTTP client
// (httpx.NewClient) sets explicit timeouts, and DoJSONRetry retries
// idempotent requests on 429/5xx/transport errors with exponential
// backoff, full jitter and Retry-After honouring. The scheduler's
// Meta-Server scoring path runs behind a circuit breaker: consecutive
// scoring failures open it, scheduling degrades to staleness-bounded
// cached scores (then a calibration-label heuristic) instead of
// starving, a SchedulingDegraded event records each outage, and
// half-open probes restore live scoring when the dependency heals. On
// SIGTERM the daemon drains: intake answers 503 draining, in-flight
// requests and containers finish, unclaimed scheduled jobs requeue, and
// durable deployments end with a compacted snapshot. Package
// internal/faults provides the deterministic fault-injection seams (the
// daemon's -faults flag) the chaos harness rehearses all of this with.
//
// # Retention
//
// Config.Retention bounds how long terminal jobs stay resident: the
// lifecycle controller sweeps older/overflowing ones, with their event
// trails, into an append-mostly archive tier (optionally spilled to a
// JSONL file), keeping the hot store — and every cost proportional to it
// — flat under sustained load. History stays queryable through
// GET /v1/jobs?archived=true and the by-name fallthrough; the zero
// policy keeps today's keep-everything behaviour.
//
// # Multi-tenancy
//
// Submissions are charged to a tenant (SubmitRequest.Tenant, defaulted
// to "default"). Config.TenantQuotas bounds each tenant's admitted work
// — pending jobs, active jobs, estimated qubit-seconds in flight — and
// the gateway rejects over-quota submissions with the quota_exceeded
// envelope. Config.TenantWeights skews the scheduler's weighted fair
// queue: with batched dispatch, backlogged tenants share binds in
// proportion to their weights regardless of submission rates, and the
// serial scheduler stays strict FIFO. GET /v1/tenants (Client.Tenants,
// qrioctl tenants) reports per-tenant usage, weight and quota.
//
// Weights, quotas and rate limits hot-reload: PUT /v1/tenants/{name}
// (Client.SetTenant, qrioctl tenants set) replaces a tenant's weight,
// quota and submission rate limit atomically — one store mutation, one
// watch event — effective from the next scheduling pass, admission check
// and rate-limit draw, no restart. Overrides are durable when the
// deployment runs with durability enabled.
//
// # Durability & restarts
//
// Config.Durability (the qrio daemon's -data-dir flag) makes cluster
// state crash-recoverable. Every store mutation is written to one
// totally ordered, CRC-framed write-ahead log and made durable by group
// commit; a background loop (and POST
// /v1/admin/snapshot) periodically compacts the log into one atomically
// replaced snapshot file; the archive tier spills to archive.jsonl in the
// same directory. On boot, New restores the snapshot, replays the logs
// past it (re-firing the same store hooks that feed the live indexes, so
// queues, usage and watch journals rebuild exactly), reloads the archive,
// and re-queues jobs that were Running when the process died — their
// containers died with it. Watch resume tokens from before the crash
// either replay exactly or answer the typed 410 "compacted" code.
// GET /v1/admin/durability (Client.Durability, qrioctl admin durability)
// reports WAL lag, snapshot age, boot replay statistics, any latched
// WAL/spill errors and the clears a snapshot healed; the same summary
// rides on GET /v1/health as the durability component. The zero Options
// keep the cluster fully in-memory — the prior behaviour.
//
// # Observability
//
// Config.Metrics accepts a metrics registry (NewMetricsRegistry); with
// one set, every layer registers its families at wiring time — scheduler
// pass latency and outcomes, submit→bind latency, queue depths, tenant
// binds and quota rejections, score-cache activity, per-route gateway
// traffic, watch-hub fanout, WAL/snapshot/archive health and
// fault-injection fire counts — and the gateway serves the registry as
// GET /v1/metrics in Prometheus text exposition format (deterministic:
// families, children and labels are sorted). GET /v1/health returns the
// typed per-component health payload. Client.Health, Client.Metrics and
// Client.MetricFamilies, plus qrioctl health and qrioctl metrics
// [-family], consume both. A nil Config.Metrics (the default) keeps
// every hot path at a single branch and /v1/metrics answering 404.
//
// The Client type (package qrio/client) speaks this surface: Submit and
// SubmitBatch, Get, List, Cancel, Logs, Events, Watch and the
// event-driven Wait, with IsConflict-style helpers over the error codes.
// The qrioctl command wraps it: submit, list -phase, watch, cancel, logs,
// events, tenants [set], admin durability|snapshot.
//
// # Concurrency
//
// The paper's architecture — one job scheduled at a time, one container
// per node — is the default. Config exposes the concurrent pipeline:
// Concurrency > 1 switches the scheduler to batched dispatch (take up to
// that many pending jobs per pass, rank each distinct spec among them
// once, bind greedily with deterministic tie-breaking),
// NodeConcurrency > 1 lets each node execute several containers
// bounded by its classical CPU capacity, and
// ScoreWorkers caps concurrent scoring calls across the whole batch (a
// shared budget, not per job). Independently, the Meta
// Server memoises canary-simulation and subgraph-matching results per
// (circuit fingerprint, backend, calibration generation), so repeated
// circuits cost one simulation per fleet calibration; re-registering a
// backend invalidates its cached scores.
//
// Ranking once per spec rests on the scheduler's plugin contract: a
// filter's or scorer's verdict is a function of the job's Spec and the
// node, never of the job's name, UID or timestamps, so jobs with
// byte-identical specs share one ranking. The same placement loop
// (sched.Dispatch) runs in the embedded scheduler, under the
// virtual-time simulator and in the out-of-process qrio-sched replica;
// every bind is conditional on the resource version the scheduler
// observed, and ends one of three ways — bound, job moved ("conflict"),
// node unavailable ("node_unavailable").
//
// See the examples directory for runnable end-to-end scenarios and
// cmd/qrio-experiments for the paper's evaluation.
package qrio

import (
	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/cluster/durability"
	"qrio/internal/cluster/state"
	"qrio/internal/core"
	"qrio/internal/device"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/obs"
	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/qasm"
	"qrio/internal/visualizer"
	"qrio/internal/workload"
)

// Orchestrator is a running QRIO deployment: cluster state, Meta Server,
// Master Server, registry, scheduler, per-node kubelets and the lifecycle
// controller. Create one with New, then Start it.
type Orchestrator = core.QRIO

// Config describes a deployment; Backends is required.
type Config = core.Config

// New assembles an orchestrator from a device fleet.
func New(cfg Config) (*Orchestrator, error) { return core.New(cfg) }

// SubmitRequest is a complete user job: circuit, resources, characteristic
// bounds and selection strategy (the Visualizer's three-step form).
type SubmitRequest = master.SubmitRequest

// Job is a scheduled quantum job with its spec and live status.
type Job = api.QuantumJob

// Result is a finished job's execution record: counts, fidelity, logs and
// the transpiled executable.
type Result = api.Result

// DeviceRequirements bound the device characteristics a job accepts.
type DeviceRequirements = api.DeviceRequirements

// DefaultTenant is the tenant of submissions that name none.
const DefaultTenant = api.DefaultTenant

// TenantQuota bounds one tenant's admitted-but-unfinished work (zero
// values mean unlimited).
type TenantQuota = api.TenantQuota

// TenantQuotaPolicy is a deployment's quota configuration: a default
// quota plus per-tenant overrides (Config.TenantQuotas).
type TenantQuotaPolicy = api.TenantQuotaPolicy

// TenantUsage is one tenant's live usage aggregate as reported by the
// cluster state and GET /v1/tenants.
type TenantUsage = state.TenantUsage

// RetentionPolicy bounds how long terminal jobs stay resident in the hot
// store before the controller archives them (Config.Retention); the zero
// policy keeps everything resident, the pre-archive behaviour.
type RetentionPolicy = state.RetentionPolicy

// DurabilityOptions configure crash-recoverable cluster state
// (Config.Durability): a data directory holding the write-ahead
// log, periodic compacted snapshots and the archive spill. The zero
// value keeps the deployment fully in-memory.
type DurabilityOptions = durability.Options

// DurabilityStats is the durability subsystem's admin view (WAL lag,
// snapshot age, boot replay statistics, latched errors), served by
// GET /v1/admin/durability.
type DurabilityStats = durability.Stats

// MetricsRegistry is the deployment-wide observability registry
// (Config.Metrics): zero-dependency counters, gauges and histograms with
// a deterministic Prometheus text exposition, served by GET /v1/metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry. Hand it to
// Config.Metrics so the daemon, simulator and tests share one view.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricFamily is one parsed family from a metrics exposition
// (Client.MetricFamilies).
type MetricFamily = obs.Family

// HealthResponse is the typed GET /v1/health payload: per-component
// statuses for store, scheduler, durability, archive and the scoring
// breaker, plus the overall roll-up and drain flag.
type HealthResponse = gateway.HealthResponse

// TenantConfig is one tenant's live weight + quota override, set through
// PUT /v1/tenants/{name} and applied without a restart.
type TenantConfig = api.TenantConfig

// Strategy selects fidelity- or topology-driven device ranking.
type Strategy = api.Strategy

// Selection strategies.
const (
	StrategyFidelity = api.StrategyFidelity
	StrategyTopology = api.StrategyTopology
)

// Job lifecycle phases. JobSucceeded, JobFailed and JobCancelled are
// terminal.
const (
	JobPending   = api.JobPending
	JobScheduled = api.JobScheduled
	JobRunning   = api.JobRunning
	JobSucceeded = api.JobSucceeded
	JobFailed    = api.JobFailed
	JobCancelled = api.JobCancelled
)

// Backend is one quantum device's vendor calibration: coupling map, error
// rates, coherence times, basis gates and host-node classical capacity.
type Backend = device.Backend

// FleetSpec parameterises the random device generator (paper Table 2).
type FleetSpec = device.FleetSpec

// DefaultFleetSpec returns the paper's 100-device testbed parameters.
func DefaultFleetSpec() FleetSpec { return device.DefaultFleetSpec() }

// GenerateFleet builds the simulated device fleet for a spec.
func GenerateFleet(spec FleetSpec) ([]*Backend, error) { return device.GenerateFleet(spec) }

// UniformBackend builds a single device with a fixed topology and uniform
// error rates — useful for controlled experiments.
func UniformBackend(name string, coupling *Graph, twoQubitErr, oneQubitErr, readoutErr, t1us, t2us float64) (*Backend, error) {
	return device.UniformBackend(name, coupling, twoQubitErr, oneQubitErr, readoutErr, t1us, t2us)
}

// Circuit is the quantum-circuit IR shared across QRIO.
type Circuit = circuit.Circuit

// NewCircuit returns an empty circuit over n qubits (and n classical bits).
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseQASM reads OpenQASM 2.0 source.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// DumpQASM renders a circuit as OpenQASM 2.0 source.
func DumpQASM(c *Circuit) (string, error) { return qasm.Dump(c) }

// Graph is an undirected topology graph (device coupling maps and user
// topology requests).
type Graph = graph.Graph

// NewGraph returns an empty topology over n qubits.
func NewGraph(n int) *Graph { return graph.New(n) }

// NamedTopology builds one of the built-in topologies: "line", "ring",
// "grid", "full", "heavy-square", "star" or "tree".
func NamedTopology(name string, n int) (*Graph, error) { return graph.Named(name, n) }

// TopologyQASM converts a topology request into the pseudo-circuit QASM
// the Meta Server scores (one cx per requested edge).
func TopologyQASM(g *Graph) (string, error) {
	return qasm.Dump(mapomatic.TopologyCircuit(g))
}

// Workload constructors (the paper's benchmark circuits).
var (
	// BernsteinVazirani builds the n-qubit BV circuit for a secret.
	BernsteinVazirani = workload.BernsteinVazirani
	// GHZ builds an n-qubit GHZ preparation.
	GHZ = workload.GHZ
	// QFT builds the n-qubit quantum Fourier transform.
	QFT = workload.QFT
	// Grover builds the paper's 3-qubit Grover search.
	Grover = workload.Grover
	// QAOARing builds a depth-p QAOA MaxCut circuit on an n-ring.
	QAOARing = workload.QAOARing
)

// Client is the Go client for the unified /v1 gateway: the full job
// lifecycle (Submit single/batch, Get, List with filters and pagination,
// Cancel, Logs, Events, Watch over SSE, event-driven Wait) plus node and
// scoring access. See package qrio/client for details.
type Client = client.Client

// NewClient builds a /v1 gateway client for a daemon base URL.
func NewClient(baseURL string) *Client { return client.New(baseURL) }

// WatchEvent is one streamed cluster change from Client.Watch.
type WatchEvent = client.WatchEvent

// APIError is the structured error the gateway returns; use
// client.IsNotFound / IsConflict / IsInvalid / IsUnschedulable to branch
// on its machine-readable code.
type APIError = client.APIError

// NewGateway returns the unified /v1 API server for an orchestrator; its
// Handler method plugs into net/http. The qrio daemon mounts it at /v1.
func NewGateway(q *Orchestrator) *gateway.Server { return gateway.New(q) }

// NewVisualizer returns the web dashboard server (submission form, cluster
// and job views, vendor page) over a deployment's gateway — pass the one
// serving /v1 on the same mux; its Handler method plugs into net/http.
// Form submissions go through the gateway's gated intake.
func NewVisualizer(gw *gateway.Server) *visualizer.Server { return visualizer.New(gw) }
