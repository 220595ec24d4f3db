package sched

import (
	"fmt"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/meta"
)

// NodeReady filters out nodes that are unhealthy or out of container
// slots. With the paper's default of one container per node (§5) this is
// the classic "busy" check; nodes configured for concurrent containers
// stay feasible until every slot is taken.
type NodeReady struct{}

// Name implements FilterPlugin.
func (NodeReady) Name() string { return "NodeReady" }

// Filter implements FilterPlugin.
func (NodeReady) Filter(_ api.QuantumJob, n api.Node) (bool, string) {
	if n.Status.Phase != api.NodeReady {
		return false, fmt.Sprintf("node is %s", n.Status.Phase)
	}
	if slots := n.ContainerSlots(); len(n.Status.RunningJobs) >= slots {
		return false, fmt.Sprintf("busy with %d/%d containers (%s)",
			len(n.Status.RunningJobs), slots, strings.Join(n.Status.RunningJobs, ","))
	}
	return true, ""
}

// ResourceFit checks the job's classical CPU/memory request against the
// node's uncommitted capacity (Fig. 4a inputs).
type ResourceFit struct{}

// Name implements FilterPlugin.
func (ResourceFit) Name() string { return "ResourceFit" }

// Filter implements FilterPlugin.
func (ResourceFit) Filter(j api.QuantumJob, n api.Node) (bool, string) {
	freeCPU := n.Spec.CPUMillis - n.Status.CPUMillisInUse
	freeMem := n.Spec.MemoryMB - n.Status.MemoryMBInUse
	if j.Spec.Resources.CPUMillis > freeCPU {
		return false, fmt.Sprintf("needs %dm CPU, %dm free", j.Spec.Resources.CPUMillis, freeCPU)
	}
	if j.Spec.Resources.MemoryMB > freeMem {
		return false, fmt.Sprintf("needs %dMB memory, %dMB free", j.Spec.Resources.MemoryMB, freeMem)
	}
	return true, ""
}

// QubitCount requires the device to have at least the requested qubits.
type QubitCount struct{}

// Name implements FilterPlugin.
func (QubitCount) Name() string { return "QubitCount" }

// Static marks the filter as reading only labels and the spec.
func (QubitCount) Static() {}

// Filter implements FilterPlugin.
func (QubitCount) Filter(j api.QuantumJob, n api.Node) (bool, string) {
	if j.Spec.Requirements.MinQubits == 0 {
		return true, ""
	}
	q, ok := api.ParseIntLabel(n.Labels, api.LabelQubits)
	if !ok {
		return false, "node has no qubit label"
	}
	if int(q) < j.Spec.Requirements.MinQubits {
		return false, fmt.Sprintf("has %d qubits, needs %d", q, j.Spec.Requirements.MinQubits)
	}
	return true, ""
}

// Characteristics enforces the user's device-characteristic bounds
// (Fig. 4b / Fig. 10): max average two-qubit error, max readout error,
// minimum T1/T2.
type Characteristics struct{}

// Name implements FilterPlugin.
func (Characteristics) Name() string { return "Characteristics" }

// Static marks the filter as reading only labels and the spec.
func (Characteristics) Static() {}

// Filter implements FilterPlugin.
func (Characteristics) Filter(j api.QuantumJob, n api.Node) (bool, string) {
	req := j.Spec.Requirements
	if req.MaxAvg2QError > 0 {
		v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvg2QErr)
		if !ok {
			return false, "node has no 2q-error label"
		}
		if v > req.MaxAvg2QError {
			return false, fmt.Sprintf("avg 2q error %.4f > %.4f", v, req.MaxAvg2QError)
		}
	}
	if req.MaxReadoutErr > 0 {
		v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvgReadout)
		if !ok {
			return false, "node has no readout label"
		}
		if v > req.MaxReadoutErr {
			return false, fmt.Sprintf("readout error %.4f > %.4f", v, req.MaxReadoutErr)
		}
	}
	if req.MinT1us > 0 {
		v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvgT1us)
		if !ok || v < req.MinT1us {
			return false, fmt.Sprintf("T1 %.0fus < %.0fus", v, req.MinT1us)
		}
	}
	if req.MinT2us > 0 {
		v, ok := api.ParseFloatLabel(n.Labels, api.LabelAvgT2us)
		if !ok || v < req.MinT2us {
			return false, fmt.Sprintf("T2 %.0fus < %.0fus", v, req.MinT2us)
		}
	}
	return true, ""
}

// DefaultFilters is QRIO's standard filter chain.
func DefaultFilters() []FilterPlugin {
	return []FilterPlugin{NodeReady{}, ResourceFit{}, QubitCount{}, Characteristics{}}
}

// MetaScore is the custom ranking plugin of §3.5: it asks the Meta Server
// to score the job against the node's backend.
type MetaScore struct {
	Scorer meta.Scorer
}

// Name implements ScorePlugin.
func (MetaScore) Name() string { return "MetaScore" }

// Score implements ScorePlugin. Nodes are named after their backends, so
// the node name doubles as the backend key.
func (m MetaScore) Score(j api.QuantumJob, n api.Node) (float64, error) {
	if m.Scorer == nil {
		return 0, fmt.Errorf("sched: MetaScore has no meta scorer")
	}
	return m.Scorer.Score(j.Name, n.Name)
}
