// Package meta implements the QRIO Meta Server (§3.4): it stores the
// per-job metadata of Table 1 (fidelity target plus the original circuit,
// or the user's topology circuit), keeps the vendor backend files for every
// node, and answers scoring requests from the scheduler's ranking plugin —
// dispatching to the Fidelity Ranking strategy (Clifford canaries,
// §3.4.1) or the Topology Ranking strategy (Mapomatic, §3.4.2).
package meta

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/mapomatic"
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
	// Estimator drives canary simulation (zero value = 256 shots, seed 1).
	Estimator fidelity.Estimator
	// Mapomatic bounds the topology layout search.
	Mapomatic mapomatic.Options
	// OverTargetPenalty discounts fidelity overshoot: a device whose
	// canary fidelity exceeds the target scores (F−target)·penalty so
	// "loosely matching" devices are preferred over wastefully good ones
	// with penalty < 1 (§3.4.1's "loosely match"). Default 0.25.
	OverTargetPenalty float64
	// DisableScoreCache recomputes every scoring request from scratch —
	// the seed's per-job behaviour, kept as an ablation/benchmark baseline.
	DisableScoreCache bool
	// CacheMaxEntries bounds the score cache with LRU eviction. Before
	// the cap, entries lived until the backend recalibrated — a fleet
	// seeing many distinct circuits grew the cache without bound. 0 means
	// the generous default (DefaultCacheMaxEntries); negative disables
	// the cap entirely. Evictions surface in CacheStats.
	CacheMaxEntries int
}

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
	fingerprint string
	once        sync.Once
	canaries    *fidelity.Canaries
	err         error
}

// maxPrepared bounds the prepared table. A prepared ensemble is only
// useful while its fingerprint's sweep is in flight (afterwards the scores
// themselves are cached), so it needs to cover the fingerprints being
// swept concurrently, not the working set.
const maxPrepared = 8

// Server is the Meta Server's core. It is safe for concurrent use; the
// /v1 gateway serves its scores (GET /v1/score, /v1/score/batch).
type Server struct {
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

	// preparedMu guards the prepared table: the device-independent half of
	// the canary estimate, most recently used first, at most maxPrepared.
	preparedMu sync.Mutex
	prepared   []*prepared

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
	if opts.OverTargetPenalty <= 0 {
		opts.OverTargetPenalty = 0.25
	}
	return &Server{
		opts:     opts,
		backends: make(map[string]*backend),
		jobs:     make(map[string]job),
		rows:     make(map[string]*cacheRow),
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

// cacheCap resolves the configured LRU capacity (0 = default, <0 = off).
func (s *Server) cacheCap() int {
	switch {
	case s.opts.CacheMaxEntries > 0:
		return s.opts.CacheMaxEntries
	case s.opts.CacheMaxEntries < 0:
		return 0
	default:
		return DefaultCacheMaxEntries
	}
}

// cached memoises compute under (fingerprint, reg), where reg is the
// backend registration — device, slot and calibration generation — the
// caller read in one critical section and will compute against: caching
// only when that generation is still the backend's current one is what
// keeps a concurrent re-registration from caching a stale score under the
// fresh one. Concurrent callers for the same key compute once. A lookup
// refreshes its row's recency; a miss that pushes the cache past the LRU
// cap evicts the coldest rows (the row just touched always stays whole).
func (s *Server) cached(fingerprint string, reg backend, compute func() (float64, error)) (float64, error) {
	if s.opts.DisableScoreCache {
		return compute()
	}
	s.mu.Lock()
	if reg.gen != s.backends[reg.dev.Name].gen {
		// The backend recalibrated between the caller's read and now: answer
		// for the calibration the caller saw, and leave the slot to scorers
		// of the current one.
		s.mu.Unlock()
		s.cacheMisses.Add(1)
		return compute()
	}
	row := s.rows[fingerprint]
	if row == nil {
		row = &cacheRow{fingerprint: fingerprint}
		row.elem = s.lru.PushFront(row)
		s.rows[fingerprint] = row
	} else {
		s.lru.MoveToFront(row.elem)
	}
	if reg.slot >= len(row.vals) {
		// Sized for the fleet as it is now; backends registered later
		// grow the rows they are scored in.
		row.vals = append(row.vals, make([]float64, len(s.backends)-len(row.vals))...)
		row.held = append(row.held, make([]uint64, (len(s.backends)+63)/64-len(row.held))...)
	}
	if row.holds(reg.slot) {
		val, c := row.vals[reg.slot], row.calls[reg.slot]
		s.mu.Unlock()
		s.cacheHits.Add(1)
		if c == nil {
			return val, nil
		}
		<-c.done // closed already when the call is a memoised failure
		return c.val, c.err
	}
	c := &call{done: make(chan struct{})}
	row.held[reg.slot>>6] |= 1 << (reg.slot & 63)
	row.live++
	s.entries++
	if row.calls == nil {
		row.calls = make(map[int]*call)
	}
	row.calls[reg.slot] = c
	if max := s.cacheCap(); max > 0 {
		for s.entries > max && s.lru.Back() != row.elem {
			coldest := s.lru.Back().Value.(*cacheRow)
			s.cacheEvictions.Add(uint64(coldest.live))
			s.dropEntriesLocked(coldest, coldest.live)
		}
	}
	s.mu.Unlock()
	s.cacheMisses.Add(1)

	// Pre-set the error: if compute panics, waiters and later callers
	// would otherwise read the zero value — score 0, the best possible
	// result. This way they get an error instead.
	c.err = fmt.Errorf("meta: scoring %s panicked; entry poisoned until recalibration", reg.dev.Name)
	defer func() {
		s.mu.Lock()
		// Publish only into the slot this call still owns: the row may
		// have been evicted or the backend recalibrated meanwhile, and a
		// score computed against generation g must never be served at g+1.
		if s.rows[fingerprint] == row && row.calls[reg.slot] == c {
			row.vals[reg.slot] = c.val
			if c.err == nil {
				row.dropCall(reg.slot)
			}
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = compute()
	return c.val, c.err
}

// canaries returns the prepared canary ensemble of one fingerprint,
// building it (parse, decompose, select the ensemble) on first use. The
// table is a convenience, not a contract: an entry evicted while a late
// scorer still needs it is simply rebuilt, to the same ensemble.
func (s *Server) canaries(fingerprint, circuitQASM string) (*fidelity.Canaries, error) {
	s.preparedMu.Lock()
	var p *prepared
	for i, have := range s.prepared {
		if have.fingerprint == fingerprint {
			p = have
			copy(s.prepared[1:i+1], s.prepared[:i])
			break
		}
	}
	if p == nil {
		p = &prepared{fingerprint: fingerprint}
		if len(s.prepared) < maxPrepared {
			s.prepared = append(s.prepared, nil)
		}
		copy(s.prepared[1:], s.prepared)
	}
	s.prepared[0] = p
	s.preparedMu.Unlock()
	p.once.Do(func() {
		// Pre-set, as in cached: a panic spends the Once, and scorers
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
	reg, err := s.registration(name)
	return reg.dev, err
}

// registration returns a backend's current registration — device, slot and
// calibration generation read atomically; see cached.
func (s *Server) registration(name string) (backend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, ok := s.backends[name]
	if !ok {
		return backend{}, fmt.Errorf("meta: unknown backend %q", name)
	}
	return *reg, nil
}

// BackendNames lists registered backends.
func (s *Server) BackendNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.backends))
	for n := range s.backends {
		out = append(out, n)
	}
	return out
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
		j.fingerprint = s.opts.Mapomatic.Fingerprint(m.TopologyQASM)
	}
	s.mu.Lock()
	s.jobs[m.JobName] = j
	s.mu.Unlock()
	return nil
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

// Score answers a scoring request: the job's strategy decides the engine
// (§3.4: "checks the database if a fidelity threshold exists for the job").
// Lower scores are better.
func (s *Server) Score(jobName, backendName string) (float64, error) {
	j, err := s.job(jobName)
	if err != nil {
		return 0, err
	}
	reg, err := s.registration(backendName)
	if err != nil {
		return 0, err
	}
	switch j.meta.Strategy {
	case api.StrategyFidelity:
		return s.fidelityScore(j, reg)
	case api.StrategyTopology:
		return s.topologyScore(j, reg)
	}
	return 0, fmt.Errorf("meta: job %s has unknown strategy %q", jobName, j.meta.Strategy)
}

// fidelityScore implements the Fidelity Ranking strategy: estimate the
// canary fidelity on the device and measure the miss against the target.
// The canary simulation — the expensive part — is memoised per (circuit
// fingerprint, backend, calibration generation), so jobs re-submitting the
// same circuit pay it once per fleet calibration, and its
// device-independent half is prepared once per fingerprint (canaries), so
// a cold fleet sweep pays that once, not once per device. The cheap target
// comparison stays outside the cache so jobs sharing a circuit but not a
// target still share the simulation.
func (s *Server) fidelityScore(j job, reg backend) (float64, error) {
	m := j.meta
	f, err := s.cached(j.fingerprint, reg, func() (float64, error) {
		cs, err := s.canaries(j.fingerprint, m.CircuitQASM)
		if err != nil {
			return 0, err
		}
		return s.opts.Estimator.CanaryFidelityOn(cs, reg.dev)
	})
	if err != nil {
		return 0, err
	}
	if f >= m.TargetFidelity {
		return (f - m.TargetFidelity) * s.opts.OverTargetPenalty, nil
	}
	return m.TargetFidelity - f, nil
}

// topologyScore implements the Topology Ranking strategy via Mapomatic,
// with the subgraph search memoised per (topology fingerprint, backend,
// calibration generation).
func (s *Server) topologyScore(j job, reg backend) (float64, error) {
	cost, err := s.cached(j.fingerprint, reg, func() (float64, error) {
		tc, err := qasm.ParseShared(j.meta.TopologyQASM)
		if err != nil {
			return 0, err
		}
		score, err := mapomatic.BestLayout(tc, reg.dev, s.opts.Mapomatic)
		if err != nil {
			return 0, err
		}
		return score.Cost, nil
	})
	if err != nil {
		return 0, err
	}
	if math.IsInf(cost, 1) {
		return 0, fmt.Errorf("meta: backend %s cannot host job %s topology", reg.dev.Name, j.meta.JobName)
	}
	return cost, nil
}

// BatchResult is one backend's outcome in a ScoreBatch call.
type BatchResult struct {
	Backend string  `json:"backend"`
	Score   float64 `json:"score"`
	Error   string  `json:"error,omitempty"`
}

// ScoreBatch scores one job against many candidate backends concurrently
// (bounded by workers; 0 = GOMAXPROCS) and returns results in input order.
// Combined with the score cache this turns fleet-wide ranking from
// |fleet| serial simulations into one parallel sweep whose repeats are
// free until the next calibration upload.
func (s *Server) ScoreBatch(jobName string, backendNames []string, workers int) []BatchResult {
	out := make([]BatchResult, len(backendNames))
	par.ForEach(len(backendNames), workers, func(i int) {
		score, err := s.Score(jobName, backendNames[i])
		out[i] = BatchResult{Backend: backendNames[i], Score: score}
		if err != nil {
			out[i].Error = err.Error()
		}
	})
	return out
}

// Scorer is the dependency the scheduler's ranking plugin needs: anything
// that can score a (job, backend) pair. *Server and FaultScorer (fault.go)
// satisfy it.
type Scorer interface {
	Score(jobName, backendName string) (float64, error)
}

var _ Scorer = (*Server)(nil)
