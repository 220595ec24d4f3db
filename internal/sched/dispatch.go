package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"qrio/internal/cluster/api"
	"qrio/internal/par"
)

// BindOutcome is what one bind attempt told the dispatcher — the only
// three things a bind can mean to a scheduler, whether it was
// State.BindJobAt in-process or POST /v1/bind across the network.
type BindOutcome int

const (
	// Bound: placed; the job's demands are charged to the node's headroom.
	Bound BindOutcome = iota
	// JobMoved: the job is no longer this pass's to place (bound
	// elsewhere, cancelled, gone, or the bind call itself failed). Stop
	// trying candidates; the node tried stays live for the class.
	JobMoved
	// NodeUnavailable: the node refused (not ready, no slot, CPU or
	// memory) behind the snapshot's back. It is dead for the pass; the
	// job moves on to its next candidate.
	NodeUnavailable
)

// RankFunc orders the nodes that can host a job, best first: the embedded
// scheduler's is Framework.Rank, a remote replica's is ScoreBatch + sort.
type RankFunc func(job api.QuantumJob, nodes []api.Node) ([]NodeScore, error)

// BindFunc attempts one placement at the version the job was observed at
// (job.ResourceVersion; 0 binds unconditionally).
type BindFunc func(job *api.QuantumJob, node string, score float64) BindOutcome

// headroom is a pass-local view of one node's free capacity.
type headroom struct {
	slots    int
	cpu, mem int64
}

// Dispatch is one scheduling pass's placement state, and Place the one
// function in the tree that walks ranked candidates against headroom and
// binds: the embedded scheduler's batched pass, the simulator (which
// drives that scheduler) and the out-of-process replica all call it,
// differing only in the RankFunc and BindFunc they supply.
//
// Jobs with byte-identical specs form a spec class and share one
// ranking — sound because plugins are functions of job.Spec and the node
// (the FilterPlugin contract). A thousand identical jobs cost one rank
// call; a job with a unique spec is a class of one.
type Dispatch struct {
	nodes []api.Node
	free  map[string]*headroom
	rank  RankFunc
	bind  BindFunc
	// record receives the events of jobs the pass could not place (reason
	// "Unschedulable" or "SchedulingError"); the default drops them.
	record func(jobName, reason, message string)

	// rankings maps spec-class fingerprint → ranked candidates (empty for
	// a class that could not be ranked). Pass-local by default; the
	// Scheduler swaps in its cross-pass cache when the chain is static.
	rankings map[uint64][]NodeScore
	// cursors[fp] is the class's first candidate not yet proven dead this
	// pass. Jobs of a class share demands and pass-local headroom only
	// shrinks, so a candidate that fails one fails every later one: the
	// cursor never backs up, and a class whose cursor has run off the end
	// is spent — its remaining jobs are skipped.
	cursors map[uint64]int
}

// NewDispatch starts a pass over one node snapshot. A node that is not
// Ready gets zero slots, so a chain without the NodeReady filter still
// never binds to it.
func NewDispatch(nodes []api.Node, rank RankFunc, bind BindFunc) *Dispatch {
	free := make(map[string]*headroom, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		h := &headroom{
			cpu: n.Spec.CPUMillis - n.Status.CPUMillisInUse,
			mem: n.Spec.MemoryMB - n.Status.MemoryMBInUse,
		}
		if n.Status.Phase == api.NodeReady {
			h.slots = n.ContainerSlots() - len(n.Status.RunningJobs)
		}
		free[n.Name] = h
	}
	return &Dispatch{nodes: nodes, free: free, rank: rank, bind: bind,
		record:   func(string, string, string) {},
		rankings: map[uint64][]NodeScore{}, cursors: map[uint64]int{}}
}

// Place ranks the spec classes the chunk introduces (in parallel, at
// most GOMAXPROCS at a time), then binds at most budget of its jobs in
// chunk order, each walking its class's ranking behind the shared cursor.
// It returns the number bound. Not safe for concurrent use.
func (d *Dispatch) Place(chunk []api.QuantumJob, budget int) int {
	fps := make([]uint64, len(chunk))
	var unranked []int // chunk index of each new class's first job
	for i := range chunk {
		fp := specFingerprint(&chunk[i].Spec)
		fps[i] = fp
		if _, ok := d.rankings[fp]; !ok {
			d.rankings[fp] = nil // claimed; filled below
			unranked = append(unranked, i)
		}
	}
	ranked := make([][]NodeScore, len(unranked))
	errs := make([]error, len(unranked))
	par.ForEach(len(unranked), 0, func(k int) {
		ranked[k], errs[k] = d.rank(chunk[unranked[k]], d.nodes)
	})
	for k, i := range unranked {
		if errs[k] != nil {
			// Unrankable is a property of the spec, not the job: record it
			// once, for the class's first job; the empty ranking stays
			// parked so same-class jobs skip past for as long as it is kept.
			d.record(chunk[i].Name, failureReason(errs[k]), errs[k].Error())
		}
		d.rankings[fps[i]] = ranked[k]
	}

	bound := 0
	for i := range chunk {
		if bound >= budget {
			break
		}
		job, fp := &chunk[i], fps[i]
		ranking := d.rankings[fp]
		cur := d.cursors[fp]
		if cur >= len(ranking) {
			continue // class spent (or never rankable) this pass
		}
	walk:
		for cur < len(ranking) {
			cand := ranking[cur]
			h := d.free[cand.Node]
			if h == nil || h.slots <= 0 ||
				h.cpu < job.Spec.Resources.CPUMillis || h.mem < job.Spec.Resources.MemoryMB {
				cur++ // dead for the whole class: same demands, headroom only shrinks
				continue
			}
			switch d.bind(job, cand.Node, cand.Score) {
			case Bound:
				h.slots--
				h.cpu -= job.Spec.Resources.CPUMillis
				h.mem -= job.Spec.Resources.MemoryMB
				bound++
				break walk
			case JobMoved:
				break walk
			case NodeUnavailable:
				h.slots = 0
				cur++
			}
		}
		d.cursors[fp] = cur
		if cur >= len(ranking) {
			// One event per class per pass, on the job that found it spent.
			d.record(job.Name, "Unschedulable",
				fmt.Sprintf("sched: job %s and its spec class exhausted %d ranked nodes this pass",
					job.Name, len(ranking)))
		}
	}
	return bound
}

// failureReason names the event a ranking or selection failure is
// recorded under: Unschedulable leaves the job pending (a node may free
// up), anything else is a SchedulingError.
func failureReason(err error) string {
	var unsched *UnschedulableError
	if errors.As(err, &unsched) {
		return "Unschedulable"
	}
	return "SchedulingError"
}

// specFingerprint hashes every JobSpec field into the spec-class key.
// Two jobs share a fingerprint only if their specs are byte-identical,
// so sharing a ranking is exactly as correct as ranking each job
// separately — for plugins that read only the spec.
func specFingerprint(s *api.JobSpec) uint64 {
	h := fnv.New64a()
	str := func(v string) { io.WriteString(h, v); h.Write([]byte{0xff}) }
	var b [8]byte
	num := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	str(s.Tenant)
	str(s.Image)
	str(s.QASM)
	str(string(s.Strategy))
	str(s.TopologyQASM)
	num(uint64(s.Shots))
	num(uint64(s.Resources.CPUMillis))
	num(uint64(s.Resources.MemoryMB))
	num(uint64(s.Requirements.MinQubits))
	num(math.Float64bits(s.Requirements.MaxAvg2QError))
	num(math.Float64bits(s.Requirements.MaxReadoutErr))
	num(math.Float64bits(s.Requirements.MinT1us))
	num(math.Float64bits(s.Requirements.MinT2us))
	num(math.Float64bits(s.TargetFidelity))
	return h.Sum64()
}
