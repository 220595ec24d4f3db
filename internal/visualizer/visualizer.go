// Package visualizer implements the QRIO Visualizer (§3.2): the web
// front-end users drive to submit jobs and inspect results. It renders the
// paper's flow with html/template instead of React: a front page (Fig. 3),
// the three-step submission form (Fig. 4) — job details, requested device
// characteristics, then a fidelity target or a topology drawn as an edge
// list (the react-flow canvas analogue) — and the per-job log view
// (Fig. 5). A minimal vendor page covers the paper's future-work item (1).
//
// The dashboard holds no path of its own into the orchestrator: it is
// built over the /v1 gateway's Server, submits through the orchestrator's
// one intake (core.QRIO.Submit, the gates a POST /v1/jobs meets) and
// cancels, adds and removes devices through the calls behind
// DELETE /v1/jobs/{name}, POST /v1/nodes and DELETE /v1/nodes/{name}.
package visualizer

import (
	"fmt"
	"strconv"
	"strings"

	"qrio/internal/cluster/api"
	"qrio/internal/gateway"
	"qrio/internal/graph"
	"qrio/internal/mapomatic"
	"qrio/internal/master"
	"qrio/internal/quantum/qasm"
)

// Server renders the dashboard over a deployment's gateway.
type Server struct {
	Gateway *gateway.Server
}

// New builds a visualizer over the gateway that serves /v1 on the same
// mux; its responses wait behind the same durable-log barrier.
func New(gw *gateway.Server) *Server { return &Server{Gateway: gw} }

// formInput is the parsed three-step submission form.
type formInput struct {
	JobName   string
	ImageName string
	QASM      string
	Shots     int
	NumQubits int
	CPUMillis int64
	MemoryMB  int64

	MaxAvg2QError float64
	MaxReadoutErr float64
	MinT1us       float64
	MinT2us       float64

	Strategy       string
	TargetFidelity float64
	TopologyKind   string // "default" or "custom"
	TopologyName   string // default topology name
	TopologyQubits int
	TopologyEdges  string // custom edge list "0-1,1-2"
}

// buildRequest converts the form into the Master Server request plus the
// topology pseudo-circuit when needed (§3.2).
func (f formInput) buildRequest() (master.SubmitRequest, error) {
	req := master.SubmitRequest{
		JobName:   f.JobName,
		ImageName: f.ImageName,
		QASM:      f.QASM,
		Shots:     f.Shots,
		CPUMillis: f.CPUMillis,
		MemoryMB:  f.MemoryMB,
		Requirements: api.DeviceRequirements{
			MinQubits:     f.NumQubits,
			MaxAvg2QError: f.MaxAvg2QError,
			MaxReadoutErr: f.MaxReadoutErr,
			MinT1us:       f.MinT1us,
			MinT2us:       f.MinT2us,
		},
	}
	switch f.Strategy {
	case "fidelity":
		req.Strategy = api.StrategyFidelity
		req.TargetFidelity = f.TargetFidelity
	case "topology":
		req.Strategy = api.StrategyTopology
		g, err := f.topologyGraph()
		if err != nil {
			return req, err
		}
		topoQASM, err := qasm.Dump(mapomatic.TopologyCircuit(g))
		if err != nil {
			return req, err
		}
		req.TopologyQASM = topoQASM
	default:
		return req, fmt.Errorf("visualizer: choose a fidelity or topology strategy")
	}
	return req, nil
}

// topologyGraph builds the requested topology: one of the paper's defaults
// (grid, line, ring, heavy square, fully connected) or a custom edge list.
func (f formInput) topologyGraph() (*graph.Graph, error) {
	n := f.TopologyQubits
	if n <= 0 {
		return nil, fmt.Errorf("visualizer: topology needs a positive qubit count")
	}
	if f.TopologyKind == "default" {
		return graph.Named(f.TopologyName, n)
	}
	return ParseEdgeList(n, f.TopologyEdges)
}

// ParseEdgeList parses the custom-topology edge syntax "0-1, 1-2, 2-3"
// into a graph over n vertices — the textual stand-in for the paper's
// drag-to-connect canvas (Fig. 4f).
func ParseEdgeList(n int, edges string) (*graph.Graph, error) {
	g := graph.New(n)
	edges = strings.TrimSpace(edges)
	if edges == "" {
		return nil, fmt.Errorf("visualizer: custom topology needs at least one edge")
	}
	for _, part := range strings.Split(edges, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ab := strings.SplitN(part, "-", 2)
		if len(ab) != 2 {
			return nil, fmt.Errorf("visualizer: bad edge %q (want a-b)", part)
		}
		a, err := strconv.Atoi(strings.TrimSpace(ab[0]))
		if err != nil {
			return nil, fmt.Errorf("visualizer: bad edge %q: %v", part, err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(ab[1]))
		if err != nil {
			return nil, fmt.Errorf("visualizer: bad edge %q: %v", part, err)
		}
		if err := g.AddEdge(a, b); err != nil {
			return nil, fmt.Errorf("visualizer: %v", err)
		}
	}
	return g, nil
}
