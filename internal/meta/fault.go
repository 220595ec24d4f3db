package meta

import (
	"context"

	"qrio/internal/faults"
)

// FaultScorer threads the fault-injection registry into the scoring
// dependency: every backend a request scores first evaluates the
// meta.score fault point, in request order, so tests and the -faults dev
// flag can take the scorer down (or slow it) without touching the Meta
// Server itself. A backend whose point fires is not scored; the rest go
// to the inner scorer in one call. A latency fault therefore adds up
// along one request. A nil registry resolves to faults.Default; an inert
// registry costs one atomic load per backend.
type FaultScorer struct {
	Scorer Scorer
	Faults *faults.Registry
}

// Score implements Scorer: a one-backend ScoreEach.
func (f FaultScorer) Score(jobName, backendName string) (float64, error) {
	scores, errs := f.ScoreEach(jobName, []string{backendName}, nil)
	return scores[0], errs[0]
}

// ScoreEach implements BatchScorer.
func (f FaultScorer) ScoreEach(jobName string, backendNames []string, fanout Fanout) ([]float64, []error) {
	var fired []error // by request index; nil while no point fired
	for i := range backendNames {
		if err := f.Faults.Fire(context.Background(), faults.PointMetaScore); err != nil {
			if fired == nil {
				fired = make([]error, len(backendNames))
			}
			fired[i] = err
		}
	}
	if fired == nil {
		return ScoreEach(f.Scorer, jobName, backendNames, fanout)
	}
	live := make([]string, 0, len(backendNames))
	for i, name := range backendNames {
		if fired[i] == nil {
			live = append(live, name)
		}
	}
	liveScores, liveErrs := ScoreEach(f.Scorer, jobName, live, fanout)
	scores := make([]float64, len(backendNames))
	k := 0
	for i := range backendNames {
		if fired[i] == nil {
			scores[i], fired[i] = liveScores[k], liveErrs[k]
			k++
		}
	}
	return scores, fired
}

var _ BatchScorer = FaultScorer{}
