package optimizer

import (
	"sort"

	"hyrise/internal/lqp"
)

// PredicateReorderingRule orders adjacent predicate nodes so the most
// selective runs first (the paper lists predicate ordering among the
// statistics-driven rules).
type PredicateReorderingRule struct{}

// Iterative implements Rule.
func (r *PredicateReorderingRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *PredicateReorderingRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	var rewrite func(n lqp.Node) lqp.Node
	rewrite = func(n lqp.Node) lqp.Node {
		pred, ok := n.(*lqp.PredicateNode)
		if !ok {
			for i, in := range n.Inputs() {
				newIn := rewrite(in)
				if newIn != in {
					n.SetInput(i, newIn)
				}
			}
			return n
		}
		// Collect the whole chain.
		var chain []*lqp.PredicateNode
		cur := n
		for {
			p, ok := cur.(*lqp.PredicateNode)
			if !ok {
				break
			}
			chain = append(chain, p)
			cur = p.Inputs()[0]
		}
		below := rewrite(cur)
		if len(chain) == 1 {
			pred.SetInput(0, below)
			return pred
		}
		type ranked struct {
			node *lqp.PredicateNode
			sel  float64
			pos  int
		}
		rs := make([]ranked, len(chain))
		for i, p := range chain {
			rs[i] = ranked{node: p, sel: est.Selectivity(p.Predicate, below), pos: i}
		}
		// Most selective predicate goes deepest (executes first): build the
		// chain bottom-up in order of decreasing selectivity. Stable sort on
		// the original position avoids rule ping-pong.
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel > rs[j].sel })
		node := below
		for i := len(rs) - 1; i >= 0; i-- {
			rs[i].node.SetInput(0, node)
			node = rs[i].node
		}
		for i, r := range rs {
			if r.pos != i {
				changed = true
				break
			}
		}
		return node
	}
	return rewrite(root), changed, nil
}
