// Package api defines the QRIO cluster's object model — the analogue of
// the Kubernetes API types the paper builds on (§3.1): Nodes that pair a
// quantum backend with classical capacity and carry scheduling labels,
// QuantumJobs with the user's resource and device requirements, execution
// Results (the logs of Fig. 5), and Events for observability.
package api

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// ObjectMeta is common object metadata, in the Kubernetes style.
type ObjectMeta struct {
	Name            string            `json:"name"`
	UID             string            `json:"uid,omitempty"`
	ResourceVersion int64             `json:"resourceVersion,omitempty"`
	CreatedAt       time.Time         `json:"createdAt,omitempty"`
	Labels          map[string]string `json:"labels,omitempty"`
}

// GetName returns the object name (store key).
func (m *ObjectMeta) GetName() string { return m.Name }

// NodePhase is the lifecycle state of a node.
type NodePhase string

const (
	NodeReady    NodePhase = "Ready"
	NodeNotReady NodePhase = "NotReady"
)

// Node is a cluster member hosting one quantum device plus classical
// compute. The vendor's backend calibration (the backend.py analogue) is
// carried as opaque JSON; the Meta Server holds the authoritative copy.
// A node's Labels are immutable like its BackendJSON: replace the map,
// never write into it (DeepCopy shares both).
type Node struct {
	ObjectMeta
	Spec   NodeSpec   `json:"spec"`
	Status NodeStatus `json:"status"`
}

// NodeSpec is the vendor-declared part of a node.
type NodeSpec struct {
	// BackendJSON is the serialized device.Backend for this node. The
	// bytes are immutable: a calibration refresh replaces the slice
	// wholesale (AddNode, RefreshNode, recovery) and nothing ever writes
	// into it, which is what lets DeepCopy share it between copies.
	BackendJSON []byte `json:"backendJSON"`
	// CPUMillis and MemoryMB are the node's classical capacity.
	CPUMillis int64 `json:"cpuMillis"`
	MemoryMB  int64 `json:"memoryMB"`
	// MaxContainers caps how many job containers the node executes
	// concurrently. 0 and 1 both mean the paper's serial one-job-per-node
	// execution; the orchestrator raises it (bounded by the node's
	// classical CPU capacity) when node concurrency is enabled.
	MaxContainers int `json:"maxContainers,omitempty"`
}

// NodeStatus is the cluster-maintained part of a node.
type NodeStatus struct {
	Phase NodePhase `json:"phase"`
	// LastHeartbeat in the STORED object is stamped only at registration,
	// refresh and Ready↔NotReady transitions: live heartbeats go to the
	// state layer's volatile liveness table, never through the store or
	// the WAL. GET /v1/nodes overlays the live value (state.LiveNode).
	LastHeartbeat time.Time `json:"lastHeartbeat,omitempty"`
	// RunningJobs, CPUMillisInUse and MemoryMBInUse are the node's
	// reservations: the jobs placed on it (Scheduled or Running, oldest
	// first; at most ContainerSlots of them, and the paper's architecture
	// keeps this to a single job) and the classical resources they
	// request. They are a view, derived on read from the placed jobs
	// (state.LiveNode, state.Fleet) and never stored: a node record, or a
	// node streamed by a watch, does not carry them.
	RunningJobs    []string `json:"runningJobs,omitempty"`
	CPUMillisInUse int64    `json:"cpuMillisInUse,omitempty"`
	MemoryMBInUse  int64    `json:"memoryMBInUse,omitempty"`
}

// ContainerSlots is the node's concurrent-container capacity (at least 1).
func (n *Node) ContainerSlots() int {
	if n.Spec.MaxContainers > 1 {
		return n.Spec.MaxContainers
	}
	return 1
}

// Scheduling strategy names (paper §3.4).
type Strategy string

const (
	StrategyFidelity Strategy = "fidelity"
	StrategyTopology Strategy = "topology"
)

// JobPhase is the lifecycle state of a quantum job.
type JobPhase string

const (
	JobPending   JobPhase = "Pending"
	JobScheduled JobPhase = "Scheduled"
	JobRunning   JobPhase = "Running"
	JobSucceeded JobPhase = "Succeeded"
	JobFailed    JobPhase = "Failed"
	// JobCancelled is the terminal phase of a job the user cancelled:
	// pending jobs leave the queue, scheduled jobs give their slot back,
	// and running jobs have their container aborted by the node's kubelet.
	JobCancelled JobPhase = "Cancelled"
)

// JobPhases lists every phase, lifecycle order first, terminals last —
// the authoritative set for clients validating filter values.
var JobPhases = []JobPhase{JobPending, JobScheduled, JobRunning, JobSucceeded, JobFailed, JobCancelled}

// Terminal reports whether the phase is final.
func (p JobPhase) Terminal() bool {
	return p == JobSucceeded || p == JobFailed || p == JobCancelled
}

// ResourceRequirements are the classical resources a job requests
// (the CPU/Memory fields of the visualizer's step-1 form, Fig. 4a).
type ResourceRequirements struct {
	CPUMillis int64 `json:"cpuMillis,omitempty"`
	MemoryMB  int64 `json:"memoryMB,omitempty"`
}

// DeviceRequirements are the quantum device characteristics a job filters
// on (the step-2 form, Fig. 4b). Zero values mean "no constraint".
type DeviceRequirements struct {
	MinQubits     int     `json:"minQubits,omitempty"`
	MaxAvg2QError float64 `json:"maxAvg2qError,omitempty"`
	MaxReadoutErr float64 `json:"maxReadoutError,omitempty"`
	MinT1us       float64 `json:"minT1us,omitempty"`
	MinT2us       float64 `json:"minT2us,omitempty"`
}

// DefaultTenant is the tenant jobs belong to when the submitter names
// none — the single-user behaviour of the paper's deployment.
const DefaultTenant = "default"

// DefaultShots is the shot count applied when a submission names none.
// Every intake layer (master, cluster state, gateway quota pricing) uses
// this one constant so admission's qubit-second estimate can never drift
// from the stored job's demand.
const DefaultShots = 1024

// ValidTenantName reports whether a tenant identifier is acceptable: a
// DNS-label-style token (lowercase alphanumerics and dashes, neither
// leading nor trailing, at most 63 characters). Tenant names appear in
// URLs, metrics and quota configuration, so the charset is kept strict.
func ValidTenantName(t string) bool {
	if t == "" || len(t) > 63 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-':
			if i == 0 || i == len(t)-1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// TenantQuota bounds one tenant's admitted-but-unfinished work. Zero
// values mean "unlimited" so the default configuration admits everything,
// exactly like the pre-tenancy gateway.
type TenantQuota struct {
	// MaxPending caps jobs sitting in the Pending phase.
	MaxPending int `json:"maxPending,omitempty"`
	// MaxActive caps jobs holding node resources (Scheduled or Running).
	// It is enforced twice: the gateway rejects submissions while the
	// tenant is at the cap, and the scheduler never dispatches a pass
	// past a tenant's remaining active budget (so a burst admitted while
	// idle still cannot exceed it once bound).
	MaxActive int `json:"maxActive,omitempty"`
	// MaxQubitSeconds caps the summed qubit-second demand of every
	// non-terminal job (see EstimateQubitSeconds).
	MaxQubitSeconds float64 `json:"maxQubitSeconds,omitempty"`
}

// Unlimited reports whether the quota admits everything.
func (q TenantQuota) Unlimited() bool {
	return q.MaxPending <= 0 && q.MaxActive <= 0 && q.MaxQubitSeconds <= 0
}

// TenantQuotaPolicy resolves per-tenant quotas: an explicit entry wins,
// everyone else gets the default. The zero policy admits everything —
// the pre-tenancy behaviour.
type TenantQuotaPolicy struct {
	// Default applies to tenants without an explicit entry.
	Default TenantQuota `json:"default,omitempty"`
	// Tenants holds per-tenant overrides.
	Tenants map[string]TenantQuota `json:"tenants,omitempty"`
}

// For returns the quota governing one tenant.
func (p TenantQuotaPolicy) For(tenant string) TenantQuota {
	if q, ok := p.Tenants[tenant]; ok {
		return q
	}
	return p.Default
}

// TenantRateLimit bounds one tenant's submission *arrival rate* at the
// gateway with a token bucket — distinct from TenantQuota, which bounds
// admitted-but-unfinished work. The zero value means "unlimited", so the
// default configuration rate-limits nobody.
type TenantRateLimit struct {
	// SubmitPerSecond is the sustained refill rate in submissions/second.
	// Zero or negative disables rate limiting for the tenant.
	SubmitPerSecond float64 `json:"submitPerSecond,omitempty"`
	// Burst caps the bucket: how many submissions may arrive back-to-back
	// after an idle period. Zero defaults to max(1, ceil(SubmitPerSecond)).
	Burst int `json:"burst,omitempty"`
}

// Unlimited reports whether the rate limit admits everything.
func (r TenantRateLimit) Unlimited() bool { return r.SubmitPerSecond <= 0 }

// TenantRateLimitPolicy resolves per-tenant rate limits, mirroring
// TenantQuotaPolicy: an explicit entry wins, everyone else gets the
// default, and the zero policy limits nobody.
type TenantRateLimitPolicy struct {
	// Default applies to tenants without an explicit entry.
	Default TenantRateLimit `json:"default,omitempty"`
	// Tenants holds per-tenant overrides.
	Tenants map[string]TenantRateLimit `json:"tenants,omitempty"`
}

// For returns the rate limit governing one tenant.
func (p TenantRateLimitPolicy) For(tenant string) TenantRateLimit {
	if r, ok := p.Tenants[tenant]; ok {
		return r
	}
	return p.Default
}

// MaxTenantWeight bounds operator-set fair-share weights; beyond this a
// weight is configuration error, not a meaningful share.
const MaxTenantWeight = 1_000_000

// TenantConfig is one tenant's operator-set scheduling configuration —
// the store-backed object behind PUT /v1/tenants/{name}. Because it lives
// in a regular cluster store, updates reach the scheduler and admission
// layers without a daemon restart and flow through the same write-ahead
// log as every other object, so they survive restarts. A TenantConfig
// fully overrides the deployment's static flag configuration for its
// tenant: Weight replaces the TenantWeights entry (0 means the default
// weight of 1), Quota replaces the TenantQuotaPolicy resolution and
// RateLimit replaces the TenantRateLimitPolicy resolution (zero fields
// mean unlimited, as everywhere).
type TenantConfig struct {
	ObjectMeta
	Weight    int             `json:"weight,omitempty"`
	Quota     TenantQuota     `json:"quota,omitempty"`
	RateLimit TenantRateLimit `json:"rateLimit,omitempty"`
}

// Validate checks a tenant configuration (Name carries the tenant).
func (t *TenantConfig) Validate() error {
	if !ValidTenantName(t.Name) {
		return fmt.Errorf("api: %q is not a valid tenant name", t.Name)
	}
	if t.Weight < 0 || t.Weight > MaxTenantWeight {
		return fmt.Errorf("api: tenant %s weight %d out of [0, %d]", t.Name, t.Weight, MaxTenantWeight)
	}
	if t.Quota.MaxPending < 0 || t.Quota.MaxActive < 0 {
		return fmt.Errorf("api: tenant %s quota bounds must be non-negative", t.Name)
	}
	if t.Quota.MaxQubitSeconds < 0 || math.IsNaN(t.Quota.MaxQubitSeconds) || math.IsInf(t.Quota.MaxQubitSeconds, 0) {
		return fmt.Errorf("api: tenant %s qubit-second bound %v is not a valid limit", t.Name, t.Quota.MaxQubitSeconds)
	}
	if math.IsNaN(t.RateLimit.SubmitPerSecond) || math.IsInf(t.RateLimit.SubmitPerSecond, 0) {
		return fmt.Errorf("api: tenant %s rate %v is not a valid limit", t.Name, t.RateLimit.SubmitPerSecond)
	}
	if t.RateLimit.Burst < 0 {
		return fmt.Errorf("api: tenant %s rate-limit burst must be non-negative", t.Name)
	}
	return nil
}

// secondsPerShot is the coarse device-time model behind qubit-second
// accounting: one millisecond of device wall-clock per shot, the order of
// magnitude of a superconducting-qubit execution cycle incl. readout.
const secondsPerShot = 1e-3

// EstimateQubitSeconds models a job's device-time demand for quota
// accounting: circuit width × shots × a nominal per-shot duration. It is
// a capacity-planning estimate, not a measurement — what matters for
// fairness is that every tenant's jobs are costed by the same rule.
func EstimateQubitSeconds(qubits, shots int) float64 {
	if qubits < 1 {
		qubits = 1
	}
	if shots < 1 {
		shots = 1
	}
	return float64(qubits) * float64(shots) * secondsPerShot
}

// QubitSecondsDemand is the job's quota-accounting weight, derived from
// its stored spec (MinQubits carries the circuit width after master
// intake; Shots is defaulted on submission).
func (s *JobSpec) QubitSecondsDemand() float64 {
	return EstimateQubitSeconds(s.Requirements.MinQubits, s.Shots)
}

// JobSpec is the user-declared job description.
type JobSpec struct {
	// Tenant names the submitting principal for quota accounting and
	// weighted fair scheduling. Empty is normalised to DefaultTenant on
	// submission.
	Tenant string `json:"tenant,omitempty"`
	// Image names the containerised job bundle in the registry; the
	// Master Server fills it in after the build+push step (§3.3).
	Image string `json:"image,omitempty"`
	// QASM is the user's circuit source (§3.2: jobs are submitted as
	// QASM files).
	QASM  string `json:"qasm"`
	Shots int    `json:"shots,omitempty"`

	Resources    ResourceRequirements `json:"resources,omitempty"`
	Requirements DeviceRequirements   `json:"requirements,omitempty"`

	// Strategy selects the ranking mode; exactly one of TargetFidelity /
	// TopologyQASM is meaningful (Table 1).
	Strategy       Strategy `json:"strategy"`
	TargetFidelity float64  `json:"targetFidelity,omitempty"`
	// TopologyQASM is the user topology converted to a pseudo-circuit
	// (one cx per requested edge, §3.2).
	TopologyQASM string `json:"topologyQASM,omitempty"`
}

// JobStatus is maintained by the scheduler, kubelets and the controller.
type JobStatus struct {
	Phase    JobPhase `json:"phase"`
	Node     string   `json:"node,omitempty"`
	Score    float64  `json:"score,omitempty"`
	Attempts int      `json:"attempts,omitempty"`
	Message  string   `json:"message,omitempty"`
	// CancelRequested marks a Running job whose user asked for
	// cancellation; the owning kubelet aborts the container and moves the
	// job to JobCancelled. Pending/Scheduled jobs cancel without it.
	CancelRequested bool `json:"cancelRequested,omitempty"`

	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// QuantumJob is the unit of scheduling.
type QuantumJob struct {
	ObjectMeta
	Spec   JobSpec   `json:"spec"`
	Status JobStatus `json:"status"`
}

// Validate checks a job submission.
func (j *QuantumJob) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("api: job has no name")
	}
	if j.Spec.QASM == "" {
		return fmt.Errorf("api: job %s has no circuit", j.Name)
	}
	switch j.Spec.Strategy {
	case StrategyFidelity:
		if j.Spec.TargetFidelity <= 0 || j.Spec.TargetFidelity > 1 {
			return fmt.Errorf("api: job %s fidelity target %g out of (0,1]", j.Name, j.Spec.TargetFidelity)
		}
	case StrategyTopology:
		if j.Spec.TopologyQASM == "" {
			return fmt.Errorf("api: job %s topology strategy without topology circuit", j.Name)
		}
	default:
		return fmt.Errorf("api: job %s has unknown strategy %q", j.Name, j.Spec.Strategy)
	}
	if j.Spec.Shots < 0 {
		return fmt.Errorf("api: job %s negative shots", j.Name)
	}
	if j.Spec.Tenant != "" && !ValidTenantName(j.Spec.Tenant) {
		return fmt.Errorf("api: job %s tenant %q is not a valid tenant name", j.Name, j.Spec.Tenant)
	}
	return nil
}

// Result holds a finished job's execution record — the log content the
// visualizer shows (Fig. 5).
type Result struct {
	ObjectMeta
	JobName  string         `json:"jobName"`
	Node     string         `json:"node"`
	Counts   map[string]int `json:"counts,omitempty"`
	Fidelity float64        `json:"fidelity,omitempty"`
	// LogLines is the human-readable execution log.
	LogLines []string `json:"logLines,omitempty"`
	// TranspiledQASM records the executable actually run on the device.
	TranspiledQASM string `json:"transpiledQASM,omitempty"`
	ElapsedMS      int64  `json:"elapsedMS,omitempty"`
}

// Event records a cluster occurrence for observability.
type Event struct {
	ObjectMeta
	Kind    string    `json:"kind"`  // object kind: Job, Node, ...
	About   string    `json:"about"` // object name
	Reason  string    `json:"reason"`
	Message string    `json:"message"`
	Time    time.Time `json:"time"`
}

// Node label keys published for scheduler filtering (§3.1: "we label each
// node in the cluster with its properties").
const (
	LabelQubits     = "qrio.io/qubits"
	LabelAvg2QErr   = "qrio.io/avg-2q-error"
	LabelAvgT1us    = "qrio.io/avg-t1-us"
	LabelAvgT2us    = "qrio.io/avg-t2-us"
	LabelAvgReadout = "qrio.io/avg-readout-error"
	LabelCPUMillis  = "qrio.io/cpu-millis"
	LabelMemoryMB   = "qrio.io/memory-mb"
)

// FormatFloatLabel renders a float for a label value.
func FormatFloatLabel(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// ParseFloatLabel parses a float label; returns ok=false on absence/garbage.
func ParseFloatLabel(labels map[string]string, key string) (float64, bool) {
	s, ok := labels[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ParseIntLabel parses an integer label.
func ParseIntLabel(labels map[string]string, key string) (int64, bool) {
	s, ok := labels[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
