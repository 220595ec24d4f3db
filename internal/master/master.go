// Package master implements the QRIO Master Server (§3.3): it takes a
// complete job request from the Visualizer, "containerises" it — bundling
// the user's QASM circuit, a generated runner manifest, the requirements
// file and a Dockerfile into an image pushed to the registry — builds the
// job specification, and submits it to the cluster API for scheduling.
package master

import (
	"encoding/json"
	"fmt"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/quantum/qasm"
	"qrio/internal/registry"
)

// SubmitRequest is the complete job description the Visualizer collects in
// its three-step form (Fig. 4).
type SubmitRequest struct {
	// Tenant names the submitting principal for quota accounting and
	// weighted fair scheduling; empty means the default tenant. The
	// intake (core.QRIO.Submit) charges quotas against it.
	Tenant string `json:"tenant,omitempty"`

	// Step 1 (Fig. 4a): job identity and classical resources.
	JobName   string `json:"jobName"`
	ImageName string `json:"imageName,omitempty"`
	QASM      string `json:"qasm"`
	Shots     int    `json:"shots,omitempty"`
	CPUMillis int64  `json:"cpuMillis,omitempty"`
	MemoryMB  int64  `json:"memoryMB,omitempty"`

	// Step 2 (Fig. 4b): preferred device characteristics.
	Requirements api.DeviceRequirements `json:"requirements,omitempty"`

	// Step 3 (Fig. 4c-f): device-selection strategy.
	Strategy       api.Strategy `json:"strategy"`
	TargetFidelity float64      `json:"targetFidelity,omitempty"`
	TopologyQASM   string       `json:"topologyQASM,omitempty"`
}

// Validate performs intake checks before any expensive work.
func (r SubmitRequest) Validate() error {
	if r.JobName == "" {
		return fmt.Errorf("master: job needs a name")
	}
	if strings.ContainsAny(r.JobName, " /?&#") {
		return fmt.Errorf("master: job name %q contains reserved characters", r.JobName)
	}
	if r.QASM == "" {
		return fmt.Errorf("master: job %s has no circuit", r.JobName)
	}
	if r.Tenant != "" && !api.ValidTenantName(r.Tenant) {
		return fmt.Errorf("master: job %s tenant %q is not a valid tenant name (lowercase alphanumerics and dashes)",
			r.JobName, r.Tenant)
	}
	switch r.Strategy {
	case api.StrategyFidelity, api.StrategyTopology:
	default:
		return fmt.Errorf("master: job %s has unknown strategy %q", r.JobName, r.Strategy)
	}
	return nil
}

// RunnerManifest is the generated "python script" analogue: the
// instructions the node agent follows to execute the bundled circuit
// against its local backend file (§3.3).
type RunnerManifest struct {
	JobName     string `json:"jobName"`
	CircuitFile string `json:"circuitFile"`
	BackendFile string `json:"backendFile"` // read from the node, per §3.1
	Shots       int    `json:"shots"`
	// Transpile documents that the runner must fit the circuit to the
	// node's coupling map and basis before execution.
	Transpile bool `json:"transpile"`
}

// requirementsTxt mirrors the package list the paper installs into each
// container (§3.3) — kept verbatim for fidelity to the paper even though
// this reproduction executes with its own simulators.
const requirementsTxt = `qiskit
qiskit-aer
matplotlib
qiskit_ibmq_provider
qiskit_ibm_runtime
`

// Server is the Master Server core. It has no HTTP surface of its own, and
// no gate: requests reach it only as the last step of the orchestrator's
// intake (core.QRIO.Submit), which has already claimed the job's name.
type Server struct {
	State    *state.Cluster
	Registry *registry.Registry
}

// NewServer builds a master server.
func NewServer(st *state.Cluster, reg *registry.Registry) *Server {
	return &Server{State: st, Registry: reg}
}

// Submit performs the full §3.3 intake: parse, containerise, push, build
// the job spec, and hand it to the cluster API. It returns the job as
// created, at its create version.
func (s *Server) Submit(req SubmitRequest) (api.QuantumJob, error) {
	if err := req.Validate(); err != nil {
		return api.QuantumJob{}, err
	}
	circ, err := qasm.ParseShared(req.QASM)
	if err != nil {
		return api.QuantumJob{}, fmt.Errorf("master: job %s circuit rejected: %w", req.JobName, err)
	}
	if req.Strategy == api.StrategyTopology {
		if _, err := qasm.ParseShared(req.TopologyQASM); err != nil {
			return api.QuantumJob{}, fmt.Errorf("master: job %s topology rejected: %w", req.JobName, err)
		}
	}
	shots := req.Shots
	if shots <= 0 {
		shots = api.DefaultShots
	}

	imageName := req.ImageName
	if imageName == "" {
		imageName = "qrio/" + strings.ToLower(req.JobName) + ":latest"
	}
	digest, err := s.containerize(req.JobName, imageName, req.QASM, shots)
	if err != nil {
		return api.QuantumJob{}, err
	}

	// The job's qubit demand is at least the circuit's register size.
	reqs := req.Requirements
	if reqs.MinQubits < circ.NumQubits {
		reqs.MinQubits = circ.NumQubits
	}

	job := api.QuantumJob{
		ObjectMeta: api.ObjectMeta{Name: req.JobName},
		Spec: api.JobSpec{
			Tenant: req.Tenant,
			Image:  imageName + "@" + digest,
			QASM:   req.QASM,
			Shots:  shots,
			Resources: api.ResourceRequirements{
				CPUMillis: req.CPUMillis,
				MemoryMB:  req.MemoryMB,
			},
			Requirements:   reqs,
			Strategy:       req.Strategy,
			TargetFidelity: req.TargetFidelity,
			TopologyQASM:   req.TopologyQASM,
		},
	}
	return s.State.SubmitJob(job, state.Note{Reason: "Containerized",
		Message: fmt.Sprintf("image %s pushed (%s)", imageName, digest[:19])})
}

// Recontainerize re-pushes a stored job's image from its spec. The
// registry is in-memory, so a restarted daemon holds none of the images
// its replayed jobs name; the bundle is a function of the job's name,
// image name, circuit and shots, so the rebuilt image must land under the
// digest already recorded in Spec.Image.
func (s *Server) Recontainerize(j api.QuantumJob) error {
	at := strings.LastIndex(j.Spec.Image, "@")
	if at < 0 {
		return fmt.Errorf("master: job %s image %q carries no digest", j.Name, j.Spec.Image)
	}
	digest, err := s.containerize(j.Name, j.Spec.Image[:at], j.Spec.QASM, j.Spec.Shots)
	if err != nil {
		return err
	}
	if want := j.Spec.Image[at+1:]; digest != want {
		return fmt.Errorf("master: job %s image rebuilt as %s, spec names %s", j.Name, digest, want)
	}
	return nil
}

// containerize builds and pushes the job image (§3.3's directory:
// circuit QASM + generated runner + requirements.txt + Dockerfile).
func (s *Server) containerize(jobName, imageName, circuitQASM string, shots int) (digest string, err error) {
	manifest := RunnerManifest{
		JobName:     jobName,
		CircuitFile: "circuit.qasm",
		BackendFile: "backend.json",
		Shots:       shots,
		Transpile:   true,
	}
	rawManifest, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return "", err
	}
	dockerfile := fmt.Sprintf(`FROM qrio/runner-base:latest
COPY circuit.qasm /job/circuit.qasm
COPY runner.json /job/runner.json
COPY requirements.txt /job/requirements.txt
RUN pip install -r /job/requirements.txt
CMD ["qrio-run", "/job/runner.json"]
# job: %s
`, jobName)
	// As strings, the circuit is the spec's QASM text itself, not a copy.
	digest, err = s.Registry.PushFiles(imageName, map[string]string{
		"circuit.qasm":     circuitQASM,
		"runner.json":      string(rawManifest),
		"requirements.txt": requirementsTxt,
		"Dockerfile":       dockerfile,
	})
	if err != nil {
		return "", fmt.Errorf("master: pushing image for %s: %w", jobName, err)
	}
	return digest, nil
}
