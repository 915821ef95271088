package analysis

// Facts are per-function properties computed from the declaration body
// and propagated across call (and method-value) edges to a fixpoint,
// so a fact established three packages away still reaches the caller:
//
//   - CancelAware: the function observes cancellation — a select with
//     a receive case, a channel receive or range, ctx.Done()/ctx.Err(),
//     or a dynamic call handed a context.Context.
//   - MutatesParam / EscapesParam: per fact-parameter (receiver first
//     for methods): the function writes through the parameter, or
//     stores it beyond its own locals (field/element/global assignment,
//     channel send, composite literal). Returning a parameter does not
//     count as an escape — the caller keeps ownership.
//
// Boolean facts flow caller-ward along every edge; parameter facts
// flow only through call edges whose argument is itself a caller
// parameter (Edge.ArgFlow).
type Facts struct {
	CancelAware bool

	MutatesParam []bool
	EscapesParam []bool
}

// propagateFacts iterates the whole graph until no fact changes.
// Facts only ever flip false -> true, so the fixpoint is reached in at
// most O(edges × facts) rounds; module graphs are small enough that
// the simple repeated sweep is fine.
func (m *Module) propagateFacts() {
	for changed := true; changed; {
		changed = false
		for _, n := range m.nodes {
			for _, e := range n.Edges {
				callee := m.nodes[e.Callee]
				if callee == nil {
					continue
				}
				cf := &callee.Facts
				if cf.CancelAware && !n.Facts.CancelAware {
					n.Facts.CancelAware, changed = true, true
				}
				for calleeIdx, callerIdx := range e.ArgFlow {
					if callerIdx < 0 || calleeIdx >= len(cf.MutatesParam) {
						continue
					}
					if cf.MutatesParam[calleeIdx] && !n.Facts.MutatesParam[callerIdx] {
						n.Facts.MutatesParam[callerIdx], changed = true, true
					}
					if cf.EscapesParam[calleeIdx] && !n.Facts.EscapesParam[callerIdx] {
						n.Facts.EscapesParam[callerIdx], changed = true, true
					}
				}
			}
		}
	}
}
