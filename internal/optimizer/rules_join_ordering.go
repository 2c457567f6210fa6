package optimizer

import (
	"math"
	"math/bits"
	"sort"

	"hyrise/internal/expression"
	"hyrise/internal/lqp"
)

// JoinOrderingRule reorders regions of inner/cross joins using DPccp
// (dynamic programming over connected subgraph/complement pairs, Moerkotte
// and Neumann; the paper: joins "are then ordered using DpCcp [34] in what
// is considered to be the most effective order"). Regions with more
// relations than dpccpMaxVertices fall back to a greedy heuristic.
type JoinOrderingRule struct{}

// dpccpMaxVertices bounds the exact enumeration.
const dpccpMaxVertices = 10

// Iterative implements Rule.
func (r *JoinOrderingRule) Iterative() bool { return false }

// Apply implements Rule.
func (r *JoinOrderingRule) Apply(root lqp.Node, est *Estimator) (lqp.Node, bool, error) {
	changed := false
	var rewrite func(n lqp.Node) lqp.Node
	rewrite = func(n lqp.Node) lqp.Node {
		// A join region is rooted at an inner/cross join whose parent is
		// not one (we are called top-down on candidates, bottom-up overall).
		if join, ok := n.(*lqp.JoinNode); ok && isReorderableJoin(join) {
			region := collectRegion(join)
			if len(region.vertices) > 2 {
				// Optimize each leaf subtree first.
				for i, v := range region.vertices {
					region.vertices[i].node = rewrite(v.node)
				}
				newRoot := region.optimize(est)
				if newRoot != nil {
					changed = true
					return newRoot
				}
			}
		}
		for i, in := range n.Inputs() {
			newIn := rewrite(in)
			if newIn != in {
				n.SetInput(i, newIn)
			}
		}
		return n
	}
	return rewrite(root), changed, nil
}

func isReorderableJoin(j *lqp.JoinNode) bool {
	return j.Kind == lqp.JoinInner || j.Kind == lqp.JoinCross
}

// regionVertex is one relation of the join region: a non-join subtree.
type regionVertex struct {
	node  lqp.Node
	start int // global column offset
	width int
}

type regionPredicate struct {
	expr     expression.Expression // bound in global column space
	vertices uint64                // bitmask of touched vertices
}

type joinRegion struct {
	vertices   []regionVertex
	predicates []regionPredicate
	totalCols  int
}

// collectRegion flattens a maximal inner/cross join subtree into vertices
// and a predicate pool. All predicates are re-expressed in the global
// column space (the in-order concatenation of the vertex schemas, which
// equals the original tree's output order).
func collectRegion(root *lqp.JoinNode) *joinRegion {
	region := &joinRegion{}
	var walk func(n lqp.Node) int // returns global offset of subtree start
	walk = func(n lqp.Node) int {
		if join, ok := n.(*lqp.JoinNode); ok && isReorderableJoin(join) {
			start := walk(join.Inputs()[0])
			walk(join.Inputs()[1])
			// The join's combined schema is the contiguous global range
			// starting at its leftmost leaf, so local indices shift by
			// start.
			for _, p := range join.Predicates {
				region.addPredicate(shiftColumns(p, start))
			}
			return start
		}
		start := region.totalCols
		width := len(n.Schema())
		region.vertices = append(region.vertices, regionVertex{node: n, start: start, width: width})
		region.totalCols += width
		return start
	}
	walk(root)
	// Compute vertex masks now that all vertices are known.
	for i := range region.predicates {
		region.predicates[i].vertices = region.vertexMask(region.predicates[i].expr)
	}
	return region
}

func (r *joinRegion) addPredicate(e expression.Expression) {
	r.predicates = append(r.predicates, regionPredicate{expr: e})
}

func (r *joinRegion) vertexMask(e expression.Expression) uint64 {
	var mask uint64
	for _, c := range referencedColumns(e) {
		if v := r.vertexOfColumn(c); v >= 0 {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

func (r *joinRegion) vertexOfColumn(global int) int {
	for i, v := range r.vertices {
		if global >= v.start && global < v.start+v.width {
			return i
		}
	}
	return -1
}

// dpPlan is a partial plan over a vertex subset.
type dpPlan struct {
	node    lqp.Node
	order   []int // vertex ids in output order
	applied uint64
	cost    float64
	card    float64
}

// optimize runs DPccp (or the greedy fallback) and returns the reordered
// region root, or nil when the region cannot be improved.
func (r *joinRegion) optimize(est *Estimator) lqp.Node {
	n := len(r.vertices)
	var best *dpPlan
	if n <= dpccpMaxVertices {
		best = r.dpccp(est)
	}
	if best == nil {
		best = r.greedy(est)
	}
	if best == nil {
		return nil
	}
	// Any unapplied predicates (e.g. referencing no columns) go on top.
	node := best.node
	for i, p := range r.predicates {
		if best.applied&(1<<uint(i)) == 0 {
			node = lqp.NewPredicateNode(node, r.remapPredicate(p.expr, best.order))
		}
	}
	// Restore the original column order with a projection if needed.
	return r.restoreOrder(node, best.order)
}

// neighbors returns vertices adjacent to the set s (excluding s itself).
func (r *joinRegion) neighbors(s uint64) uint64 {
	var out uint64
	for _, p := range r.predicates {
		if p.vertices == 0 {
			continue
		}
		if p.vertices&s != 0 && p.vertices&^s != 0 {
			out |= p.vertices &^ s
		}
	}
	return out
}

// dpccp implements the csg-cmp-pair enumeration. Disconnected regions are
// handled by joining connected components with cross products afterwards.
func (r *joinRegion) dpccp(est *Estimator) *dpPlan {
	n := len(r.vertices)
	plans := make(map[uint64]*dpPlan, 1<<uint(n))
	for i, v := range r.vertices {
		plans[1<<uint(i)] = &dpPlan{
			node:  v.node,
			order: []int{i},
			cost:  0,
			card:  est.Cardinality(v.node),
		}
	}

	emitPair := func(s1, s2 uint64) {
		p1, ok1 := plans[s1]
		p2, ok2 := plans[s2]
		if !ok1 || !ok2 {
			return
		}
		r.tryJoin(est, plans, p1, p2, s1, s2)
		r.tryJoin(est, plans, p2, p1, s2, s1)
	}

	// EnumerateCsg / EnumerateCmp (Moerkotte & Neumann).
	var enumerateCmp func(s1 uint64)
	var enumerateCsgRec func(s, x uint64, emit func(uint64))
	enumerateCsgRec = func(s, x uint64, emit func(uint64)) {
		neighborSet := r.neighbors(s) &^ x
		for sub := neighborSet; sub > 0; sub = (sub - 1) & neighborSet {
			emit(s | sub)
		}
		for sub := neighborSet; sub > 0; sub = (sub - 1) & neighborSet {
			enumerateCsgRec(s|sub, x|neighborSet, emit)
		}
	}
	enumerateCmp = func(s1 uint64) {
		lowest := uint64(1) << uint(bits.TrailingZeros64(s1))
		x := s1 | (lowest - 1)
		neighborSet := r.neighbors(s1) &^ x
		// Iterate neighbors in descending order.
		for i := n - 1; i >= 0; i-- {
			bit := uint64(1) << uint(i)
			if neighborSet&bit == 0 {
				continue
			}
			emitPair(s1, bit)
			enumerateCsgRec(bit, x|(neighborSet&(bit-1))|bit, func(s2 uint64) {
				emitPair(s1, s2)
			})
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := uint64(1) << uint(i)
		enumerateCmp(s)
		enumerateCsgRec(s, s|(s-1), func(csg uint64) {
			enumerateCmp(csg)
		})
	}

	full := (uint64(1) << uint(n)) - 1
	if p, ok := plans[full]; ok {
		return p
	}
	// Disconnected graph: cross-join component plans, smallest first.
	return r.joinComponents(est, plans, full)
}

// tryJoin considers joining p1 (left) with p2 (right) and keeps the
// cheapest plan per subset.
func (r *joinRegion) tryJoin(est *Estimator, plans map[uint64]*dpPlan, p1, p2 *dpPlan, s1, s2 uint64) {
	combined := s1 | s2
	order := append(append([]int{}, p1.order...), p2.order...)

	// Applicable predicates: fully inside the combined set, touching both
	// sides, not yet applied below.
	applied := p1.applied | p2.applied
	var joinPreds []expression.Expression
	for i, p := range r.predicates {
		bit := uint64(1) << uint(i)
		if applied&bit != 0 || p.vertices == 0 {
			continue
		}
		if p.vertices&^combined != 0 {
			continue
		}
		if p.vertices&s1 == 0 || p.vertices&s2 == 0 {
			continue
		}
		joinPreds = append(joinPreds, r.remapPredicate(p.expr, order))
		applied |= bit
	}
	kind := lqp.JoinInner
	if len(joinPreds) == 0 {
		kind = lqp.JoinCross
	}
	join := lqp.NewJoinNode(kind, p1.node, p2.node, joinPreds)
	card := est.Cardinality(join)
	cost := p1.cost + p2.cost + card
	if existing, ok := plans[combined]; ok && existing.cost <= cost {
		return
	}
	plans[combined] = &dpPlan{node: join, order: order, applied: applied, cost: cost, card: card}
}

// joinComponents combines the best plans of connected components with cross
// joins (smallest cardinality first).
func (r *joinRegion) joinComponents(est *Estimator, plans map[uint64]*dpPlan, full uint64) *dpPlan {
	var comps []*dpPlan
	remaining := full
	for remaining != 0 {
		seed := uint64(1) << uint(bits.TrailingZeros64(remaining))
		comp := seed
		for {
			grow := r.neighbors(comp) & remaining
			if grow == 0 {
				break
			}
			comp |= grow
		}
		p, ok := plans[comp]
		if !ok {
			return nil
		}
		comps = append(comps, p)
		remaining &^= comp
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].card < comps[j].card })
	acc := comps[0]
	for _, c := range comps[1:] {
		join := lqp.NewJoinNode(lqp.JoinCross, acc.node, c.node, nil)
		acc = &dpPlan{
			node:    join,
			order:   append(append([]int{}, acc.order...), c.order...),
			applied: acc.applied | c.applied,
			cost:    acc.cost + c.cost + acc.card*c.card,
			card:    acc.card * c.card,
		}
	}
	return acc
}

// greedy repeatedly joins the pair with the smallest estimated result.
func (r *joinRegion) greedy(est *Estimator) *dpPlan {
	var live []*dpPlan
	var masks []uint64
	for i, v := range r.vertices {
		live = append(live, &dpPlan{node: v.node, order: []int{i}, card: est.Cardinality(v.node)})
		masks = append(masks, 1<<uint(i))
	}
	for len(live) > 1 {
		bestI, bestJ := -1, -1
		var bestPlan *dpPlan
		var bestMask uint64
		for i := 0; i < len(live); i++ {
			for j := 0; j < len(live); j++ {
				if i == j {
					continue
				}
				tmp := map[uint64]*dpPlan{}
				r.tryJoin(est, tmp, live[i], live[j], masks[i], masks[j])
				cand := tmp[masks[i]|masks[j]]
				if cand == nil {
					continue
				}
				cand.applied |= live[i].applied | live[j].applied
				if bestPlan == nil || cand.card < bestPlan.card {
					bestPlan, bestI, bestJ = cand, i, j
					bestMask = masks[i] | masks[j]
				}
			}
		}
		if bestPlan == nil {
			return nil
		}
		// Remove the two inputs, add the combined plan.
		newLive := live[:0]
		newMasks := masks[:0]
		for k := range live {
			if k != bestI && k != bestJ {
				newLive = append(newLive, live[k])
				newMasks = append(newMasks, masks[k])
			}
		}
		live = append(newLive, bestPlan)
		masks = append(newMasks, bestMask)
	}
	if math.IsNaN(live[0].card) {
		return nil
	}
	return live[0]
}

// remapPredicate rewrites a global-space predicate into the local space of
// a plan whose output concatenates the vertices in the given order.
func (r *joinRegion) remapPredicate(e expression.Expression, order []int) expression.Expression {
	offsets := make(map[int]int, len(order)) // vertex id -> local offset
	pos := 0
	for _, v := range order {
		offsets[v] = pos
		pos += r.vertices[v].width
	}
	return expression.Transform(e, func(x expression.Expression) expression.Expression {
		bc, ok := x.(*expression.BoundColumn)
		if !ok {
			return nil
		}
		v := r.vertexOfColumn(bc.Index)
		if v < 0 {
			return nil
		}
		local := offsets[v] + (bc.Index - r.vertices[v].start)
		return &expression.BoundColumn{Index: local, Name: bc.Name, DT: bc.DT}
	})
}

// restoreOrder appends a projection mapping the plan's column order back to
// the region's original global order (parents reference columns by index).
func (r *joinRegion) restoreOrder(node lqp.Node, order []int) lqp.Node {
	identity := true
	pos := 0
	for _, v := range order {
		if r.vertices[v].start != pos {
			identity = false
			break
		}
		pos += r.vertices[v].width
	}
	if identity {
		return node
	}
	// localIndexOfGlobal[g] = position of global column g in plan output.
	localOf := make([]int, r.totalCols)
	pos = 0
	for _, v := range order {
		for i := 0; i < r.vertices[v].width; i++ {
			localOf[r.vertices[v].start+i] = pos + i
		}
		pos += r.vertices[v].width
	}
	schema := node.Schema()
	exprs := make([]expression.Expression, r.totalCols)
	names := make([]string, r.totalCols)
	for g := 0; g < r.totalCols; g++ {
		local := localOf[g]
		exprs[g] = &expression.BoundColumn{Index: local, Name: schema[local].Name, DT: schema[local].DT}
		names[g] = schema[local].Name
	}
	return lqp.NewProjectionNode(node, exprs, names)
}
