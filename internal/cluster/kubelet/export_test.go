package kubelet

import (
	"context"

	"qrio/internal/cluster/api"
	"qrio/internal/fidelity"
)

// BuiltinRuntime is the runtime a kubelet with no Runtime set runs, for
// tests that wrap it.
func (k *Kubelet) BuiltinRuntime(ctx context.Context, j api.QuantumJob) ([]string, *fidelity.Execution, error) {
	return k.execute(ctx, j)
}
