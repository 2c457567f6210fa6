package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"hyrise/internal/lqp"
	"hyrise/internal/observe"
	"hyrise/internal/operators"
	"hyrise/internal/optimizer"
	"hyrise/internal/pipeline"
	"hyrise/internal/sqlparser"
	"hyrise/internal/statistics"
)

// Operator kinds the per-layer report groups operator spans into.
const (
	kindScan = iota
	kindJoin
	kindAggregate
	kindSort
	kindProjection
	kindValidate
	kindDML
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"scan", "join", "aggregate", "sort", "projection", "validate", "dml", "other"}

// kindOf classifies an operator span by the operator type its diagnostic
// name starts with.
func kindOf(name string) int {
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	switch name {
	case "TableScan", "IndexScan":
		return kindScan
	case "HashJoin", "SortMergeJoin", "NestedLoopJoin":
		return kindJoin
	case "Aggregate":
		return kindAggregate
	case "Sort":
		return kindSort
	case "Projection":
		return kindProjection
	case "Validate":
		return kindValidate
	case "Insert", "Update", "Delete":
		return kindDML
	default:
		return kindOther
	}
}

// engineTrace aggregates the statement traces an engine delivers to its
// trace sink: stage times, operator time by kind, and row counts. It is the
// engine's own instrumentation read through its public sink; the benchmark
// adds nothing inside the engine.
type engineTrace struct {
	mu           sync.Mutex
	statements   int64
	planReused   int64 // statements that ran a cached or prepared plan
	stage        map[string]time.Duration
	kind         [numKinds]time.Duration
	rowsIn       int64 // rows the scan operators examined
	rowsOut      int64 // rows the statements returned
	chunksPruned int64
}

func newEngineTrace() *engineTrace { return &engineTrace{stage: map[string]time.Duration{}} }

func (t *engineTrace) sink(tr *observe.Trace) {
	stages := tr.Stages()
	ops := tr.OpSpans()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.statements++
	if tr.CacheHit {
		t.planReused++
	}
	for _, s := range stages {
		t.stage[s.Name] += s.Duration
	}
	for _, op := range ops {
		k := kindOf(op.Name)
		t.kind[k] += op.Duration
		if k == kindScan {
			t.rowsIn += op.RowsIn
		}
		t.chunksPruned += op.ChunksPruned
	}
	if len(ops) > 0 {
		t.rowsOut += ops[len(ops)-1].RowsOut // the root completes last
	}
}

// counters snapshots every metric of an engine's registry by name.
func counters(e *pipeline.Engine) map[string]int64 {
	out := map[string]int64{}
	for _, m := range e.Metrics().Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

func delta(after, before map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// runtimeSnap is what the runtime.* per-layer metrics are deltas of.
type runtimeSnap struct {
	mallocs, totalAlloc, pauseNS uint64
	gcCPU, totalCPU              float64
}

func snapRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s := runtimeSnap{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, pauseNS: m.PauseTotalNs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// planner runs the four planning steps the way Engine.buildPlan does, so
// each can be timed on its own.
type planner struct {
	tr  *lqp.Translator
	opt *optimizer.Optimizer
	pqp *operators.Translator
}

func newPlanner(e *pipeline.Engine, stats *statistics.Cache) *planner {
	cfg := e.Config()
	return &planner{
		tr:  &lqp.Translator{SM: e.StorageManager(), UseMvcc: cfg.UseMvcc},
		opt: optimizer.NewDefault(stats),
		pqp: &operators.Translator{JoinImpl: cfg.JoinImpl},
	}
}

type planTimes struct{ parse, translate, optimize, toPQP time.Duration }

func (p *planner) plan(sql string) (planTimes, error) {
	var t planTimes
	start := time.Now()
	stmts, err := sqlparser.Parse(sql)
	if err != nil {
		return t, err
	}
	t.parse = time.Since(start)
	for _, stmt := range stmts {
		start = time.Now()
		logical, err := p.tr.Translate(stmt)
		if err != nil {
			return t, err
		}
		t.translate += time.Since(start)
		start = time.Now()
		logical, err = p.opt.Optimize(logical)
		if err != nil {
			return t, err
		}
		t.optimize += time.Since(start)
		start = time.Now()
		if _, err := p.pqp.Translate(logical); err != nil {
			return t, err
		}
		t.toPQP += time.Since(start)
	}
	return t, nil
}

// probePlanning times the planning layers on a workload's statement corpus:
// once with a cold statistics cache (statistics.first_plan_ms), then
// repeatedly with the engine's warm one until every layer has at least
// minSamples samples. Medians are per statement.
func probePlanning(e *pipeline.Engine, corpus []string, minSamples int, out map[string]float64) error {
	cold := newPlanner(e, statistics.NewCache(e.Config().HistogramType))
	start := time.Now()
	for _, sql := range corpus {
		if _, err := cold.plan(sql); err != nil {
			return err
		}
	}
	out["statistics.first_plan_ms"] = ms(time.Since(start))

	warm := newPlanner(e, e.Statistics())
	var parse, translate, optimize, toPQP []time.Duration
	for len(parse) < minSamples {
		for _, sql := range corpus {
			t, err := warm.plan(sql)
			if err != nil {
				return err
			}
			parse = append(parse, t.parse)
			translate = append(translate, t.translate)
			optimize = append(optimize, t.optimize)
			toPQP = append(toPQP, t.toPQP)
		}
	}
	out["sqlparser.parse_us"] = us(medianDuration(parse))
	out["lqp.translate_us"] = us(medianDuration(translate))
	out["optimizer.optimize_us"] = us(medianDuration(optimize))
	out["operators.to_pqp_us"] = us(medianDuration(toPQP))
	return nil
}

// probeSessionOverhead runs read-only statements through a session and
// reports the median of call wall time minus the engine's own stage total:
// what Session adds around the pipeline (registry, fingerprint, statistics,
// auto-commit).
func probeSessionOverhead(e *pipeline.Engine, selects []string, minSamples int) (float64, error) {
	s := e.NewSession()
	var over []time.Duration
	for len(over) < minSamples {
		for _, sql := range selects {
			start := time.Now()
			res, err := s.ExecuteOne(sql)
			if err != nil {
				return 0, err
			}
			over = append(over, time.Since(start)-res.Timing.Total())
		}
	}
	return us(medianDuration(over)), nil
}

// probeCommit times COMMIT alone for transactions that each run write(i)
// first: the MVCC commit plus, on a durable engine, the WAL append and sync.
func probeCommit(e *pipeline.Engine, n int, write func(i int) string) (float64, error) {
	s := e.NewSession()
	commits := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if _, err := s.ExecuteOne("BEGIN"); err != nil {
			return 0, err
		}
		if _, err := s.ExecuteOne(write(i)); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := s.ExecuteOne("COMMIT"); err != nil {
			return 0, err
		}
		commits = append(commits, time.Since(start))
	}
	return us(medianDuration(commits)), nil
}
