package optimizer

import (
	"sort"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
	"hyrise/internal/types"
)

// ChunkPruningRule consults the per-chunk filters (min-max, quotient
// filters, range histograms) for every simple predicate sitting above a
// stored table and records the chunks that can be skipped on the
// StoredTableNode (paper §2.4: "chunk pruning can be propagated through
// conjunctive predicate chains down to the plan node that initially
// represents the input table").
type ChunkPruningRule struct{}

// Name implements Rule.
func (r *ChunkPruningRule) Name() string { return "ChunkPruning" }

// Iterative implements Rule.
func (r *ChunkPruningRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *ChunkPruningRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	lqp.VisitPlan(root, func(n lqp.Node) {
		pred, ok := n.(*lqp.PredicateNode)
		if !ok {
			return
		}
		// Walk down through the predicate chain (and Validate) to the
		// stored table; indices are stable along the way.
		stored := storedTableBelow(pred.Inputs()[0])
		if stored == nil || stored.Table == nil {
			return
		}
		col, lo, hi, ok := pruningBounds(pred.Predicate)
		if !ok {
			return
		}
		pruned := map[types.ChunkID]bool{}
		for _, id := range stored.PrunedChunks {
			pruned[id] = true
		}
		before := len(pruned)
		for ci, chunk := range stored.Table.Chunks() {
			id := types.ChunkID(ci)
			if pruned[id] {
				continue
			}
			for _, f := range chunk.Filters(col) {
				var prunable bool
				if lo != nil && hi != nil && lo.Equal(*hi) {
					prunable = f.CanPruneEquals(*lo)
				} else {
					prunable = f.CanPruneRange(lo, hi)
				}
				if prunable {
					pruned[id] = true
					break
				}
			}
		}
		if len(pruned) > before {
			ids := make([]types.ChunkID, 0, len(pruned))
			for id := range pruned {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			stored.PrunedChunks = ids
			changed = true
		}
	})
	return root, changed, nil
}

// storedTableBelow follows index-preserving nodes down to a stored table.
func storedTableBelow(n lqp.Node) *lqp.StoredTableNode {
	switch node := n.(type) {
	case *lqp.StoredTableNode:
		return node
	case *lqp.ValidateNode, *lqp.PredicateNode:
		return storedTableBelow(node.Inputs()[0])
	default:
		return nil
	}
}

// pruningBounds extracts the [lo, hi] bounds a simple predicate imposes on
// a column (nil = open). ok is false for unsupported shapes.
func pruningBounds(e expression.Expression) (types.ColumnID, *types.Value, *types.Value, bool) {
	switch p := e.(type) {
	case *expression.Comparison:
		col, lit, op, ok := columnLiteral(p)
		if !ok || lit.IsNull() {
			return 0, nil, nil, false
		}
		id := types.ColumnID(col.Index)
		v := lit
		switch op {
		case expression.Eq:
			return id, &v, &v, true
		case expression.Lt, expression.Le:
			return id, nil, &v, true
		case expression.Gt, expression.Ge:
			return id, &v, nil, true
		default:
			return 0, nil, nil, false
		}
	case *expression.Between:
		col, ok := p.Child.(*expression.BoundColumn)
		if !ok {
			return 0, nil, nil, false
		}
		lo, okLo := literalValue(p.Lo)
		hi, okHi := literalValue(p.Hi)
		if !okLo || !okHi || lo.IsNull() || hi.IsNull() {
			return 0, nil, nil, false
		}
		return types.ColumnID(col.Index), &lo, &hi, true
	default:
		return 0, nil, nil, false
	}
}

// PredicateReorderingRule orders adjacent predicate nodes so the most
// selective runs first (the paper lists predicate ordering among the
// statistics-driven rules).
type PredicateReorderingRule struct{}

// Name implements Rule.
func (r *PredicateReorderingRule) Name() string { return "PredicateReordering" }

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
