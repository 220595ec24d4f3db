package transpile

// ResetPlans empties the route-plan memo, so the next Transpile of every
// skeleton builds its plan.
func ResetPlans() {
	plans.Lock()
	clear(plans.m)
	plans.Unlock()
}
