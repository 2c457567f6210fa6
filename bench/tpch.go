package main

import (
	"fmt"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// tpchPower runs TPC-H power rounds (Q1..Q22 in order) in process. Two
// engines share one StorageManager: the paper's default (scheduler off),
// whose queries are the primary operation, and a scheduler-on engine whose
// round is the alt operation: alt_p50_ms is the sum over the 22 queries of
// each query's median scheduler-on latency, so the heavy queries, where the
// parallel paths engage, weigh most. Operators, expression evaluation and
// the encoded scan kernels do nearly all the work; planning happens once per
// query text (plan cache), and server and persistence do nothing.
type tpchPower struct {
	o       options
	sm      *storage.StorageManager
	serial  *pipeline.Engine
	sched   *pipeline.Engine
	ss, ps  *pipeline.Session
	numbers []int
	queries map[int]string
	ref     []queryDigest // digests of the warm-up round; every later round must match
	stream  streamHash

	generateS, encodeS, compression float64
	schedBefore                     map[string]int64
}

// queryClass names the latency class of query n on the serial engine,
// schedClass on the scheduler-on engine.
func queryClass(n int) string { return fmt.Sprintf("q%02d", n) }
func schedClass(n int) string { return fmt.Sprintf("s%02d", n) }

func (w *tpchPower) setup() error {
	sz := w.o.sizes
	w.sm = storage.NewStorageManager()
	cfg := pipeline.DefaultConfig()
	w.serial = pipeline.NewEngine(cfg, w.sm)
	cfg.UseScheduler = true
	cfg.SchedulerWorkers = w.o.procs
	w.sched = pipeline.NewEngine(cfg, w.sm)

	start := time.Now()
	if err := tpch.Generate(w.sm, tpch.Config{
		ScaleFactor: sz.tpchSF, ChunkSize: sz.tpchChunk, UseMvcc: cfg.UseMvcc, Seed: w.o.seed,
	}); err != nil {
		return err
	}
	w.generateS = time.Since(start).Seconds()
	raw, _, _ := tableBytes(w.sm)
	start = time.Now()
	if err := tpch.EncodeAndFilter(w.sm, tpch.DefaultEncoding()); err != nil {
		return err
	}
	w.encodeS = time.Since(start).Seconds()
	encoded, _, _ := tableBytes(w.sm)
	w.compression = float64(raw) / float64(encoded)

	w.numbers = tpch.QueryNumbers()
	w.queries = tpch.Queries(sz.tpchSF)
	w.ss, w.ps = w.serial.NewSession(), w.sched.NewSession()

	// Warm-up: one round per engine fills the plan and statistics caches and
	// fixes the reference digests.
	want, err := goldenFor(w.o)
	if err != nil {
		return err
	}
	if want != nil && len(want) != len(w.numbers) {
		return fmt.Errorf("golden %s holds %d digests, want %d", goldenKey(w.o), len(want), len(w.numbers))
	}
	w.ref = make([]queryDigest, len(w.numbers))
	for i, n := range w.numbers {
		res, err := w.ss.ExecuteOne(w.queries[n])
		if err != nil {
			return fmt.Errorf("warm-up Q%d: %w", n, err)
		}
		w.ref[i] = digest(res.Table)
		// The query texts do not depend on the seed, the data does: the
		// result digests stand in for it in the input hash.
		w.stream.add(w.queries[n])
		w.stream.add(w.ref[i].Checksum)
		if want != nil && w.ref[i] != want[i] {
			return fmt.Errorf("Q%d: result %+v differs from golden %+v", n, w.ref[i], want[i])
		}
		res, err = w.ps.ExecuteOne(w.queries[n])
		if err != nil {
			return fmt.Errorf("warm-up Q%d (scheduler): %w", n, err)
		}
		if d := digest(res.Table); d != w.ref[i] {
			return fmt.Errorf("Q%d: scheduler-on result %+v differs from serial %+v", n, d, w.ref[i])
		}
	}
	if w.o.updateGolden {
		return writeGolden(w.o, w.ref)
	}
	w.schedBefore = counters(w.sched)
	return nil
}

func (w *tpchPower) engine() *pipeline.Engine { return w.serial }

func (w *tpchPower) blocks() int { return w.o.sizes.tpchRounds }

func (w *tpchPower) shape() shape {
	var s shape
	for _, n := range w.numbers {
		s.primary = append(s.primary, queryClass(n))
		s.alt = append(s.alt, schedClass(n))
	}
	s.geo = s.primary
	return s
}

// run executes the block's share of round pairs: a serial round, then a
// scheduler-on round.
func (w *tpchPower) run(block, of int, rec *recorder) {
	c := rec.client()
	defer rec.merge(c)
	lo, hi := share(w.o.sizes.tpchRounds, block, of)
	for r := lo; r < hi; r++ {
		w.round(c, w.ss, true)
		w.round(c, w.ps, false)
	}
}

// round runs Q1..Q22 on one session. Result checking happens outside the
// timed call.
func (w *tpchPower) round(c *client, s *pipeline.Session, primary bool) {
	for i, n := range w.numbers {
		name := "tpch_power.sched_query"
		if primary {
			name = "tpch_power.query"
		}
		root := c.begin(name, nil)
		call := c.begin("pipeline.Session.ExecuteOne", root)
		start := time.Now()
		res, err := s.ExecuteOne(w.queries[n])
		d := time.Since(start)
		c.end(call)
		if err == nil {
			c.stages(call, res.Timing)
		}
		c.end(root)
		c.attempted++
		switch {
		case err != nil:
			c.fail(fmt.Errorf("Q%d: %w", n, err))
		case digest(res.Table) != w.ref[i]:
			c.fail(fmt.Errorf("Q%d: result changed between rounds", n))
		case primary:
			c.observe(queryClass(n), d)
		default:
			c.observe(schedClass(n), d)
		}
	}
}

func (w *tpchPower) opsPerSecond(rec *recorder) float64 {
	s := w.shape()
	return float64(rec.count(s.primary...)) / rec.sum(s.primary...).Seconds()
}

func (w *tpchPower) finish(rec *recorder) error { return nil }

func (w *tpchPower) units(rec *recorder) float64 {
	return float64(rec.count(queryClass(w.numbers[0])))
}

func (w *tpchPower) streamHash() string { return w.stream.String() }

func (w *tpchPower) layers(pass *recorder, out map[string]float64) error {
	rounds := w.units(pass)
	after := counters(w.sched)
	sh := w.shape()
	out["scheduler.parallel_speedup"] = sum(classMedians(pass, sh.primary)) / sum(classMedians(pass, sh.alt))
	out["scheduler.scan_morsels"] = delta(after, w.schedBefore, "operator.scan.morsels") / rounds
	out["scheduler.join_partitions"] = delta(after, w.schedBefore, "operator.join.partitions") / rounds
	out["tpch.generate_s"] = w.generateS
	out["encoding.encode_s"] = w.encodeS
	out["encoding.compression_ratio"] = w.compression

	corpus := make([]string, 0, len(w.numbers))
	for _, n := range w.numbers {
		corpus = append(corpus, w.queries[n])
	}
	if err := probePlanning(w.serial, corpus, w.o.sizes.probeIters, out); err != nil {
		return err
	}
	over, err := probeSessionOverhead(w.serial, corpus, w.o.sizes.probeIters)
	if err != nil {
		return err
	}
	out["pipeline.session_overhead_us"] = over

	lineitem, err := w.sm.GetTable("lineitem")
	if err != nil {
		return err
	}
	col, err := lineitem.ColumnID("l_shipdate")
	if err != nil {
		return err
	}
	out["encoding.dict_scan_ns_per_row"], err = probeDictScan(lineitem, col, encoding.ScanPredicate{
		Op: encoding.ScanLe, Value: types.Str("1998-09-02"),
	}, w.o.sizes.probeIters)
	if err != nil {
		return err
	}
	out["storage.append_row_ns"], err = probeAppendRow(lineitem, w.o.sizes.probeIters)
	return err
}

func (w *tpchPower) close() {
	w.serial.Close()
	w.sched.Close()
}
