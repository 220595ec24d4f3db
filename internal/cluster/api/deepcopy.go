package api

import "time"

func copyMeta(m ObjectMeta) ObjectMeta {
	out := m
	if m.Labels != nil {
		out.Labels = make(map[string]string, len(m.Labels))
		for k, v := range m.Labels {
			out.Labels[k] = v
		}
	}
	return out
}

func copyTime(t *time.Time) *time.Time {
	if t == nil {
		return nil
	}
	c := *t
	return &c
}

// DeepCopy returns an independent copy of the node. Spec.BackendJSON is
// shared, not copied: it is immutable by contract (see NodeSpec), and at
// ~10 KB it was most of what every list and journal slot copied. So are
// the Labels, derived from those bytes and replaced whole with them
// (state.NodeLabels).
func (n Node) DeepCopy() Node {
	out := n
	out.Status.RunningJobs = append([]string(nil), n.Status.RunningJobs...)
	return out
}

// DeepCopy returns an independent copy of the job.
func (j QuantumJob) DeepCopy() QuantumJob {
	out := j
	out.ObjectMeta = copyMeta(j.ObjectMeta)
	out.Status.StartedAt = copyTime(j.Status.StartedAt)
	out.Status.FinishedAt = copyTime(j.Status.FinishedAt)
	return out
}

// DeepCopy returns an independent copy of the result.
func (r Result) DeepCopy() Result {
	out := r
	out.ObjectMeta = copyMeta(r.ObjectMeta)
	if r.Counts != nil {
		out.Counts = make(map[string]int, len(r.Counts))
		for k, v := range r.Counts {
			out.Counts[k] = v
		}
	}
	out.LogLines = append([]string(nil), r.LogLines...)
	return out
}

// DeepCopy returns an independent copy of the tenant configuration.
func (t TenantConfig) DeepCopy() TenantConfig {
	out := t
	out.ObjectMeta = copyMeta(t.ObjectMeta)
	return out
}

// DeepCopy returns an independent copy of the event.
func (e Event) DeepCopy() Event {
	out := e
	out.ObjectMeta = copyMeta(e.ObjectMeta)
	return out
}
