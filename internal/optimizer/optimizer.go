// Package optimizer implements Hyrise's rule-based query optimizer
// (paper §2.6): rules take a logical query plan as modifiable input and
// report whether they changed it; the optimizer re-runs iterative rules
// until a fixpoint (bounded). Every rule leaves a valid LQP behind, so
// optimization can be stopped after any rule.
package optimizer

import (
	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/statistics"
)

// Rule is one rewrite over the LQP.
type Rule interface {
	// Apply rewrites the plan and returns the (possibly new) root and
	// whether anything changed.
	Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error)
	// Iterative rules re-run while the plan keeps changing; single-pass
	// rules run once per optimization.
	Iterative() bool
}

// Optimizer runs a rule pipeline.
type Optimizer struct {
	Rules []Rule
	Est   *Estimator
}

// maxPasses bounds the fixpoint iteration of iterative rules.
const maxPasses = 5

// NewDefault builds the default optimization pipeline (cf. paper: eight
// rules at the time of writing; we implement the named ones — predicate
// pushdown, join ordering via DPccp — plus the supporting rewrites they
// depend on; chunk pruning, a rule in the paper, happens in the scan that
// reads the chunks, see operators.TableScan).
func NewDefault(stats *statistics.Cache) *Optimizer {
	return &Optimizer{
		Rules: []Rule{
			&ExpressionReductionRule{},
			&SubqueryToJoinRule{},
			&PredicateSplitUpRule{},
			&PredicatePushdownRule{},
			&JoinOrderingRule{},
			&PredicateReorderingRule{},
			&BetweenCompositionRule{},
		},
		Est: NewEstimator(stats),
	}
}

// Optimize runs the pipeline to (bounded) fixpoint, then recursively
// optimizes the plans of subqueries that survived as expressions (scalar
// subselects the rewrite rules could not turn into joins still deserve
// pushdown and join ordering of their own).
func (o *Optimizer) Optimize(root lqp.Node) (lqp.Node, error) {
	return o.optimize(root, 0)
}

// maxSubqueryDepth bounds recursive subquery optimization.
const maxSubqueryDepth = 8

func (o *Optimizer) optimize(root lqp.Node, depth int) (lqp.Node, error) {
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, r := range o.Rules {
			if pass > 0 && !r.Iterative() {
				continue
			}
			newRoot, ruleChanged, err := r.Apply(root, o.Est)
			if err != nil {
				return nil, err
			}
			root = newRoot
			changed = changed || ruleChanged
		}
		if !changed {
			break
		}
	}
	if depth < maxSubqueryDepth {
		if err := o.optimizeSubqueryPlans(root, depth); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// optimizeSubqueryPlans walks all expressions of the plan and optimizes the
// logical plans held by remaining Subquery expressions in place.
func (o *Optimizer) optimizeSubqueryPlans(root lqp.Node, depth int) error {
	var firstErr error
	lqp.VisitExpressions(root, func(e expression.Expression) {
		expression.VisitAll(e, func(x expression.Expression) {
			sub, ok := x.(*expression.Subquery)
			if !ok || firstErr != nil {
				return
			}
			plan, ok := sub.Plan.(lqp.Node)
			if !ok {
				return
			}
			optimized, err := o.optimize(plan, depth+1)
			if err != nil {
				firstErr = err
				return
			}
			sub.Plan = optimized
		})
	})
	return firstErr
}
