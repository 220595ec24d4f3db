// Package meta implements the QRIO Meta Server (§3.4): it stores the
// per-job metadata of Table 1 (fidelity target plus the original circuit,
// or the user's topology circuit), keeps the vendor backend files for every
// node, and answers scoring requests from the scheduler's ranking plugin —
// dispatching to the Fidelity Ranking strategy (Clifford canaries,
// §3.4.1) or the Topology Ranking strategy (Mapomatic, §3.4.2).
package meta

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/faults"
	"qrio/internal/fidelity"
	"qrio/internal/mapomatic"
	"qrio/internal/memo"
	"qrio/internal/par"
	"qrio/internal/quantum/qasm"
)

// JobMeta is the metadata the Visualizer uploads per Table 1.
type JobMeta struct {
	JobName  string       `json:"jobName"`
	Strategy api.Strategy `json:"strategy"`
	// Fidelity strategy: the target in (0,1] and the original circuit.
	TargetFidelity float64 `json:"targetFidelity,omitempty"`
	CircuitQASM    string  `json:"circuitQASM,omitempty"`
	// Topology strategy: the user-drawn topology as a pseudo-circuit.
	TopologyQASM string `json:"topologyQASM,omitempty"`
}

// Validate checks the metadata against Table 1's contract.
func (m JobMeta) Validate() error {
	if m.JobName == "" {
		return fmt.Errorf("meta: job metadata without job name")
	}
	switch m.Strategy {
	case api.StrategyFidelity:
		if m.TargetFidelity <= 0 || m.TargetFidelity > 1 {
			return fmt.Errorf("meta: job %s fidelity %g out of (0,1]", m.JobName, m.TargetFidelity)
		}
		if m.CircuitQASM == "" {
			return fmt.Errorf("meta: job %s fidelity strategy needs the circuit", m.JobName)
		}
	case api.StrategyTopology:
		if m.TopologyQASM == "" {
			return fmt.Errorf("meta: job %s topology strategy needs the topology circuit", m.JobName)
		}
	default:
		return fmt.Errorf("meta: job %s unknown strategy %q", m.JobName, m.Strategy)
	}
	return nil
}

// Options tunes the server's scoring engines.
type Options struct {
	// Estimator drives canary simulation (zero value = 2048 shots, seed 1).
	Estimator fidelity.Estimator
	// CacheMaxEntries bounds the score cache with LRU eviction (0 = the
	// generous DefaultCacheMaxEntries). Evictions surface in CacheStats.
	CacheMaxEntries int
}

// overTargetPenalty discounts fidelity overshoot: a device whose canary
// fidelity exceeds the target scores (F−target)·penalty, so "loosely
// matching" devices are preferred over wastefully good ones (§3.4.1's
// "loosely match").
const overTargetPenalty = 0.25

// DefaultCacheMaxEntries is the score cache's default LRU capacity —
// roomy enough that a fleet-wide sweep of hundreds of distinct circuits
// stays fully cached, while a long-lived deployment no longer grows
// without bound.
const DefaultCacheMaxEntries = 65536

// cacheRow is the score cache's unit of residency and recency: every
// memoised result of one engine-input fingerprint (circuit source + engine
// options), one slot per backend. A fleet sweep touches one row, not one
// map entry and one list element per device.
type cacheRow struct {
	fingerprint string
	elem        *list.Element // position in Server.lru
	// vals and held are indexed by backend.slot: a held slot's score was
	// computed against its backend's current calibration (RegisterBackend
	// releases the slot when the calibration changes). While calls has an
	// entry for a held slot, that call is the answer.
	vals []float64
	held []uint64 // bitset
	live int      // held slots
	// calls holds, by slot index, what does not fit a slot: the in-flight
	// computation later scorers wait on, and a finished one that failed
	// (its error is the memoised result). A swept row holds neither, so it
	// is nil then and the row costs 8 bytes and a bit a device.
	calls map[int]*call
}

func (row *cacheRow) holds(slot int) bool { return row.held[slot>>6]>>(slot&63)&1 != 0 }

// call is one in-flight computation.
type call struct {
	done chan struct{}
	val  float64
	err  error
}

// backend is a registered device: its current calibration, how many times
// it has been registered, and its position in every row's slot array.
type backend struct {
	dev  *device.Backend
	gen  uint64
	slot int
}

// job is stored metadata plus the engine-input fingerprint of its circuit
// (or topology), digested once at upload rather than on every score.
type job struct {
	meta        JobMeta
	fingerprint string
}

// prepared is a singleflight slot of the prepared table: the canary
// ensemble of one fingerprint, built by the first scorer that needs it.
type prepared struct {
	once     sync.Once
	canaries *fidelity.Canaries
	err      error
}

// maxPrepared bounds the prepared table. A prepared ensemble is only
// useful while its fingerprint's sweep is in flight (afterwards the scores
// themselves are cached), so it needs to cover the fingerprints being
// swept concurrently, not the working set.
const maxPrepared = 8

// Server is the Meta Server's core. It is safe for concurrent use; the
// /v1 gateway serves its scores (GET /v1/score, /v1/score/batch).
type Server struct {
	// Faults is the registry the meta.score fault point resolves to (nil
	// = faults.Default); set it before the server scores.
	Faults *faults.Registry

	opts Options

	mu       sync.RWMutex
	backends map[string]*backend
	jobs     map[string]job
	// rows memoises the expensive scoring engines (canary simulation,
	// subgraph layout search) per fingerprint and, inside a row, per
	// backend and calibration generation. Options.CacheMaxEntries bounds
	// the resident (fingerprint, backend) pairs — entries — by evicting
	// whole least-recently-used rows; lru orders rows most recent first.
	rows    map[string]*cacheRow
	lru     list.List // of *cacheRow
	entries int

	// prepared is the prepared table: the device-independent half of the
	// canary estimate by fingerprint, at most maxPrepared.
	prepared *memo.Bounded[string, *prepared]

	cacheHits, cacheMisses, cacheEvictions, cacheInvalidations atomic.Uint64
}

// NewServer builds a Meta Server.
func NewServer(opts Options) *Server {
	if opts.Estimator.Shots <= 0 {
		// The best devices in a fleet differ by only a few percent in
		// canary fidelity; the ranking needs a healthy shot budget to
		// separate them (stabilizer shots are cheap).
		opts.Estimator = fidelity.Estimator{Shots: 2048, Seed: 1}
	}
	return &Server{
		opts:     opts,
		backends: make(map[string]*backend),
		jobs:     make(map[string]job),
		rows:     make(map[string]*cacheRow),
		prepared: memo.New[string, *prepared](maxPrepared),
	}
}

// RegisterBackend stores (a copy of the pointer to) a vendor backend file.
// Re-registering a known backend models a calibration refresh: the
// backend's generation advances and its cached scores are dropped — one
// slot in each row, so the cost is O(rows), not O(entries).
func (s *Server) RegisterBackend(b *device.Backend) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("meta: rejecting backend: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, known := s.backends[b.Name]
	if !known {
		s.backends[b.Name] = &backend{dev: b, gen: 1, slot: len(s.backends)}
		return nil
	}
	reg.dev = b
	reg.gen++
	for _, row := range s.rows {
		if reg.slot < len(row.vals) && row.holds(reg.slot) {
			// A scorer still computing this slot keeps its call; finding
			// the slot no longer its own, it will not publish the result.
			row.held[reg.slot>>6] &^= 1 << (reg.slot & 63)
			row.dropCall(reg.slot)
			s.cacheInvalidations.Add(1)
			s.dropEntriesLocked(row, 1)
		}
	}
	return nil
}

// dropCall forgets the slot's call, if any.
func (row *cacheRow) dropCall(slot int) {
	if delete(row.calls, slot); len(row.calls) == 0 {
		row.calls = nil
	}
}

// dropEntriesLocked accounts for n entries leaving row and removes the row
// once it is empty.
func (s *Server) dropEntriesLocked(row *cacheRow, n int) {
	row.live -= n
	s.entries -= n
	if row.live == 0 {
		delete(s.rows, row.fingerprint)
		s.lru.Remove(row.elem)
	}
}

// Generation reports how many times a backend has been registered; cached
// scores are only shared within one generation.
func (s *Server) Generation(backendName string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if reg, ok := s.backends[backendName]; ok {
		return reg.gen
	}
	return 0
}

// CacheStats is the score cache's lifetime counters plus its current
// size, all in (fingerprint, backend) pairs: Hits/Misses from lookups,
// Evictions from the LRU cap, Invalidations from calibration refreshes (a
// re-registered backend dropping its entries — deliberately not counted as
// evictions: they measure calibration churn, not cache pressure), Entries
// resident right now.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	Entries                                int
}

// CacheStats returns the score cache's counters.
func (s *Server) CacheStats() CacheStats {
	s.mu.RLock()
	entries := s.entries
	s.mu.RUnlock()
	return CacheStats{
		Hits:          s.cacheHits.Load(),
		Misses:        s.cacheMisses.Load(),
		Evictions:     s.cacheEvictions.Load(),
		Invalidations: s.cacheInvalidations.Load(),
		Entries:       entries,
	}
}

// cacheCap resolves the configured LRU capacity.
func (s *Server) cacheCap() int {
	if s.opts.CacheMaxEntries > 0 {
		return s.opts.CacheMaxEntries
	}
	return DefaultCacheMaxEntries
}

// claim is a backend of a ScoreEach request the cache could not answer
// on the spot: the request computes it into slot (dev set) or waits on
// another scorer's call.
type claim struct {
	i    int // index into the request
	dev  *device.Backend
	slot int
	c    *call
}

// ScoreEach answers one job's scoring request against each named backend:
// scores[i] and errs[i] are backendNames[i]'s outcome, lower scores being
// better. The job's strategy decides the engine (§3.4: "checks the
// database if a fidelity threshold exists for the job").
//
// Every backend first passes the meta.score fault point (s.Faults), once,
// in request order and before the lock is taken, so a latency or hang
// fault never holds it; a backend whose point fires is not scored.
//
// The expensive engines — canary simulation, subgraph layout search — are
// memoised per (engine-input fingerprint, backend, calibration
// generation), so jobs re-submitting a circuit pay them once per fleet
// calibration. The job, every backend's registration and the job's cache
// row are read in one critical section, which claims each missing slot
// and refreshes the row's recency once; a fully cached request therefore
// costs one lock and starts no goroutine. Only the misses this request
// claimed are computed, under lim; slots another scorer is computing are
// waited for, so concurrent requests compute each entry once. The miss
// that pushes the cache past its LRU cap evicts the coldest rows (the row
// just touched always stays whole). CacheStats counts one hit or miss per
// backend scored.
func (s *Server) ScoreEach(jobName string, backendNames []string, lim par.Limit) ([]float64, []error) {
	scores := make([]float64, len(backendNames))
	errs := make([]error, len(backendNames))
	for i := range backendNames {
		errs[i] = s.Faults.Fire(context.Background(), faults.PointMetaScore)
	}
	s.mu.Lock()
	j, ok := s.jobs[jobName]
	if !ok {
		s.mu.Unlock()
		err := fmt.Errorf("meta: no metadata for job %q", jobName)
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return scores, errs
	}
	var row *cacheRow
	var owned, waits []claim
	hits := 0
	for i, name := range backendNames {
		if errs[i] != nil {
			continue
		}
		reg, ok := s.backends[name]
		if !ok {
			errs[i] = fmt.Errorf("meta: unknown backend %q", name)
			continue
		}
		if row == nil {
			row = s.touchRowLocked(j.fingerprint)
		}
		if row.holds(reg.slot) {
			hits++
			if c := row.calls[reg.slot]; c != nil {
				waits = append(waits, claim{i: i, c: c})
			} else {
				scores[i] = row.vals[reg.slot]
			}
			continue
		}
		c := &call{done: make(chan struct{})}
		row.held[reg.slot>>6] |= 1 << (reg.slot & 63)
		row.live++
		s.entries++
		if row.calls == nil {
			row.calls = make(map[int]*call)
		}
		row.calls[reg.slot] = c
		owned = append(owned, claim{i: i, dev: reg.dev, slot: reg.slot, c: c})
	}
	if len(owned) > 0 {
		for max := s.cacheCap(); s.entries > max && s.lru.Back() != row.elem; {
			coldest := s.lru.Back().Value.(*cacheRow)
			s.cacheEvictions.Add(uint64(coldest.live))
			s.dropEntriesLocked(coldest, coldest.live)
		}
	}
	s.mu.Unlock()
	s.cacheHits.Add(uint64(hits))
	s.cacheMisses.Add(uint64(len(owned)))

	par.ForEach(len(owned), lim, func(k int) { s.compute(j, row, owned[k]) })
	for _, cl := range append(owned, waits...) {
		<-cl.c.done // closed already when the call is a memoised failure
		scores[cl.i], errs[cl.i] = cl.c.val, cl.c.err
	}
	for i := range backendNames {
		if errs[i] != nil {
			scores[i] = 0
		} else {
			scores[i], errs[i] = s.finish(j, backendNames[i], scores[i])
		}
	}
	return scores, errs
}

// touchRowLocked returns the cache row of one fingerprint, created if
// absent, as the most recently used, with a slot for every registered
// backend.
func (s *Server) touchRowLocked(fingerprint string) *cacheRow {
	row := s.rows[fingerprint]
	if row == nil {
		row = &cacheRow{fingerprint: fingerprint}
		row.elem = s.lru.PushFront(row)
		s.rows[fingerprint] = row
	} else {
		s.lru.MoveToFront(row.elem)
	}
	if n := len(s.backends); len(row.vals) < n {
		// Sized for the fleet as it is now; backends registered later
		// grow the rows they are scored in.
		row.vals = append(row.vals, make([]float64, n-len(row.vals))...)
		row.held = append(row.held, make([]uint64, (n+63)/64-len(row.held))...)
	}
	return row
}

// compute runs the job's engine for one claimed backend and publishes
// the result — only into the slot the claim still owns: the row may have
// been evicted or the backend recalibrated meanwhile, and a score
// computed against generation g must never be served at g+1.
func (s *Server) compute(j job, row *cacheRow, cl claim) {
	c := cl.c
	// Pre-set the error: if the engine panics, waiters and later callers
	// would otherwise read the zero value — score 0, the best possible
	// result. This way they get an error instead.
	c.err = fmt.Errorf("meta: scoring %s panicked; entry poisoned until recalibration", cl.dev.Name)
	defer func() {
		s.mu.Lock()
		if s.rows[j.fingerprint] == row && row.calls[cl.slot] == c {
			row.vals[cl.slot] = c.val
			if c.err == nil {
				row.dropCall(cl.slot)
			}
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = s.engine(j, cl.dev)
}

// canaries returns the prepared canary ensemble of one fingerprint,
// building it (parse, decompose, select the ensemble) on first use. The
// table is a convenience, not a contract: an entry evicted while a late
// scorer still needs it is simply rebuilt, to the same ensemble.
func (s *Server) canaries(fingerprint, circuitQASM string) (*fidelity.Canaries, error) {
	p, _ := s.prepared.Load(fingerprint, func() (*prepared, error) { return new(prepared), nil }) // a slot's build cannot fail
	p.once.Do(func() {
		// Pre-set, as in compute: a panic spends the Once, and scorers
		// arriving later must find an error, not a nil ensemble.
		p.err = fmt.Errorf("meta: preparing canaries panicked")
		c, err := qasm.ParseShared(circuitQASM)
		if err != nil {
			p.err = err
			return
		}
		p.canaries, p.err = s.opts.Estimator.PrepareCanaries(c)
	})
	return p.canaries, p.err
}

// Backend returns a registered backend.
func (s *Server) Backend(name string) (*device.Backend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, ok := s.backends[name]
	if !ok {
		return nil, fmt.Errorf("meta: unknown backend %q", name)
	}
	return reg.dev, nil
}

// PutJobMeta stores job metadata (Table 1 upload) together with the
// fingerprint its scores are cached under.
func (s *Server) PutJobMeta(m JobMeta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	// The QASM payloads must parse — reject garbage at the door.
	if m.CircuitQASM != "" {
		if _, err := qasm.ParseShared(m.CircuitQASM); err != nil {
			return fmt.Errorf("meta: job %s circuit does not parse: %w", m.JobName, err)
		}
	}
	if m.TopologyQASM != "" {
		if _, err := qasm.ParseShared(m.TopologyQASM); err != nil {
			return fmt.Errorf("meta: job %s topology does not parse: %w", m.JobName, err)
		}
	}
	j := job{meta: m}
	switch m.Strategy {
	case api.StrategyFidelity:
		j.fingerprint = s.opts.Estimator.CanaryFingerprint(m.CircuitQASM)
	case api.StrategyTopology:
		j.fingerprint = mapomatic.Options{}.Fingerprint(m.TopologyQASM)
	}
	s.mu.Lock()
	s.jobs[m.JobName] = j
	s.mu.Unlock()
	return nil
}

// DropJobMeta forgets a job's metadata: the intake takes back an upload
// whose job the Master Server refused to create.
func (s *Server) DropJobMeta(jobName string) {
	s.mu.Lock()
	delete(s.jobs, jobName)
	s.mu.Unlock()
}

// JobMeta returns stored metadata.
func (s *Server) JobMeta(jobName string) (JobMeta, error) {
	j, err := s.job(jobName)
	return j.meta, err
}

func (s *Server) job(jobName string) (job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[jobName]
	if !ok {
		return job{}, fmt.Errorf("meta: no metadata for job %q", jobName)
	}
	return j, nil
}

// Score answers one (job, backend) scoring request: a one-backend
// ScoreEach.
func (s *Server) Score(jobName, backendName string) (float64, error) {
	scores, errs := s.ScoreEach(jobName, []string{backendName}, nil)
	return scores[0], errs[0]
}

// engine runs the job's strategy engine on one device; its result is what
// the cache memoises. The Fidelity Ranking strategy estimates the canary
// fidelity on the device; its device-independent half is prepared once
// per fingerprint (canaries), so a cold fleet sweep pays that once, not
// once per device. The Topology Ranking strategy runs Mapomatic's
// subgraph search.
func (s *Server) engine(j job, dev *device.Backend) (float64, error) {
	switch j.meta.Strategy {
	case api.StrategyFidelity:
		cs, err := s.canaries(j.fingerprint, j.meta.CircuitQASM)
		if err != nil {
			return 0, err
		}
		return s.opts.Estimator.CanaryFidelityOn(cs, dev)
	case api.StrategyTopology:
		tc, err := qasm.ParseShared(j.meta.TopologyQASM)
		if err != nil {
			return 0, err
		}
		score, err := mapomatic.BestLayout(tc, dev, mapomatic.Options{})
		if err != nil {
			return 0, err
		}
		return score.Cost, nil
	}
	return 0, fmt.Errorf("meta: job %s has unknown strategy %q", j.meta.JobName, j.meta.Strategy)
}

// finish turns an engine result into the job's score. A fidelity job
// scores its miss against the target — outside the cache, so jobs sharing
// a circuit but not a target still share the simulation. A topology job
// scores the layout cost; a device with no layout cannot host it.
func (s *Server) finish(j job, backendName string, v float64) (float64, error) {
	m := j.meta
	if m.Strategy == api.StrategyTopology {
		if math.IsInf(v, 1) {
			return 0, fmt.Errorf("meta: backend %s cannot host job %s topology", backendName, m.JobName)
		}
		return v, nil
	}
	if v >= m.TargetFidelity {
		return (v - m.TargetFidelity) * overTargetPenalty, nil
	}
	return m.TargetFidelity - v, nil
}

// BatchResult is one backend's outcome in a ScoreBatch call.
type BatchResult struct {
	Backend string  `json:"backend"`
	Score   float64 `json:"score"`
	Error   string  `json:"error,omitempty"`
}

// ScoreBatch is ScoreEach in the /v1/score/batch route's shape: results
// in input order, misses computed on at most workers goroutines (0 =
// GOMAXPROCS). Combined with the score cache this turns fleet-wide
// ranking from |fleet| serial simulations into one parallel sweep whose
// repeats are free until the next calibration upload.
func (s *Server) ScoreBatch(jobName string, backendNames []string, workers int) []BatchResult {
	scores, errs := s.ScoreEach(jobName, backendNames, par.NewLimit(workers))
	out := make([]BatchResult, len(backendNames))
	for i, name := range backendNames {
		out[i] = BatchResult{Backend: name, Score: scores[i]}
		if errs[i] != nil {
			out[i].Error = errs[i].Error()
		}
	}
	return out
}

// Scorer is the dependency the scheduler's ranking plugin needs: anything
// that can score a (job, backend) pair. *Server satisfies it, and
// BatchScorer too.
type Scorer interface {
	Score(jobName, backendName string) (float64, error)
}

// BatchScorer is a Scorer that also scores one job against many backends
// in one call; ScoreEach finds it by interface assertion.
type BatchScorer interface {
	Scorer
	ScoreEach(jobName string, backendNames []string, lim par.Limit) ([]float64, []error)
}

// ScoreEach scores one job against each named backend through sc: in one
// call when sc is a BatchScorer, else one Score call per backend under
// lim.
func ScoreEach(sc Scorer, jobName string, backendNames []string, lim par.Limit) ([]float64, []error) {
	if b, ok := sc.(BatchScorer); ok {
		return b.ScoreEach(jobName, backendNames, lim)
	}
	scores := make([]float64, len(backendNames))
	errs := make([]error, len(backendNames))
	par.ForEach(len(backendNames), lim, func(i int) { scores[i], errs[i] = sc.Score(jobName, backendNames[i]) })
	return scores, errs
}

var _ BatchScorer = (*Server)(nil)
