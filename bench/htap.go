package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
	"hyrise/internal/types"
)

// htapIngest writes beside reads on one table. Set-up bulk-loads
// events(id,k,grp,v) and dictionary-encodes the full chunks; then one writer
// commits multi-row INSERT transactions (every tenth also UPDATEs old rows)
// while one reader loops a filter-aggregate and a GROUP BY over the whole
// table. Scans cross encoded immutable chunks and fresh unencoded ones under
// Validate, so a read optimisation that taxes appends (eager encoding, index
// upkeep) or an MVCC garbage-collection change shows here and in data_mb.
type htapIngest struct {
	o      options
	eng    *pipeline.Engine
	events *storage.Table
	writer *pipeline.Session
	reader *pipeline.Session
	rng    *rand.Rand
	stream streamHash

	nextID      int64
	rows        int64   // committed rows
	sumV        float64 // expected sum(v) over committed rows
	encodeS     float64
	compression float64
	txns        int
	commits     []time.Duration
	lastCount   int64
	lastMatches int64
}

const (
	htapFilterAgg  = "SELECT count(*), sum(v) FROM events WHERE k < 50"
	htapGroupBy    = "SELECT grp, count(*), sum(v) FROM events GROUP BY grp"
	htapGroups     = 64
	htapUpdateRows = 10
)

// eventRow derives a row from its id: k cycles 0..99 so exactly half of
// every aligned batch matches the reader's filter; grp and v are seeded.
func (w *htapIngest) eventRow(id int64) (k, grp int64, v float64) {
	return id % 100, int64(w.rng.Intn(htapGroups)), float64(w.rng.Intn(100_000)) / 100
}

func (w *htapIngest) setup() error {
	sz := w.o.sizes
	w.rng = rand.New(rand.NewSource(w.o.seed))
	w.eng = pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	defs := []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64}, {Name: "k", Type: types.TypeInt64},
		{Name: "grp", Type: types.TypeInt64}, {Name: "v", Type: types.TypeFloat64},
	}
	w.events = storage.NewTable("events", defs, sz.htapChunk, true)
	for id := int64(0); id < int64(sz.htapRows); id++ {
		k, grp, v := w.eventRow(id)
		if _, err := w.events.AppendRow([]types.Value{types.Int(id), types.Int(k), types.Int(grp), types.Float(v)}); err != nil {
			return err
		}
		w.sumV += v
	}
	w.nextID, w.rows = int64(sz.htapRows), int64(sz.htapRows)
	concurrency.MarkTableLoaded(w.events)
	if err := w.eng.StorageManager().AddTable(w.events); err != nil {
		return err
	}
	raw, _, _ := tableBytes(w.eng.StorageManager())
	start := time.Now()
	if err := encoding.EncodeTable(w.events, tpch.DefaultEncoding(), nil); err != nil {
		return err
	}
	if err := filter.AttachDefaultFilters(w.events); err != nil {
		return err
	}
	w.encodeS = time.Since(start).Seconds()
	encoded, _, _ := tableBytes(w.eng.StorageManager())
	w.compression = float64(raw) / float64(encoded)

	w.writer, w.reader = w.eng.NewSession(), w.eng.NewSession()
	warm := newRecorder(false)
	w.ingest(sz.htapWarmup, warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return nil
}

func (w *htapIngest) engine() *pipeline.Engine { return w.eng }
func (w *htapIngest) blocks() int              { return blocksFor(w.o.sizes.htapTxns, 10) }

func (w *htapIngest) shape() shape {
	return shape{
		primary: []string{"ingest"},
		alt:     []string{"read"},
		geo:     []string{"ingest", "filter_agg", "group_by"},
	}
}

func (w *htapIngest) run(block, of int, rec *recorder) {
	lo, hi := share(w.o.sizes.htapTxns, block, of)
	w.ingest(hi-lo, rec)
}

// ingest commits n write transactions while the reader loops until the
// writer is done.
func (w *htapIngest) ingest(n int, rec *recorder) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := rec.client()
		defer rec.merge(c)
		for {
			select {
			case <-done:
				return
			default:
			}
			w.read(c)
		}
	}()
	c := rec.client()
	for i := 0; i < n; i++ {
		w.write(c)
	}
	close(done)
	wg.Wait()
	rec.merge(c)
}

// write runs one ingest transaction: BEGIN, a multi-row INSERT, on every
// tenth transaction an UPDATE of old rows, COMMIT.
func (w *htapIngest) write(c *client) {
	batch := w.o.sizes.htapBatch
	var sb strings.Builder
	sb.WriteString("INSERT INTO events VALUES ")
	var addV float64
	for i := 0; i < batch; i++ {
		id := w.nextID + int64(i)
		k, grp, v := w.eventRow(id)
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %s)", id, k, grp, strconv.FormatFloat(v, 'f', 2, 64))
		addV += v
	}
	stmts := []string{"BEGIN", sb.String()}
	w.txns++
	if w.txns%10 == 0 {
		lo := w.rng.Intn(w.o.sizes.htapRows - htapUpdateRows)
		stmts = append(stmts, fmt.Sprintf("UPDATE events SET v = v + 1.0 WHERE id >= %d AND id < %d", lo, lo+htapUpdateRows))
		addV += htapUpdateRows
	}
	stmts = append(stmts, "COMMIT")

	c.attempted++
	root := c.begin("htap_ingest.ingest", nil)
	start := time.Now()
	var commit time.Duration
	for _, sql := range stmts {
		w.stream.add(sql)
		call := c.begin("pipeline.Session.ExecuteOne", root)
		t0 := time.Now()
		res, err := w.writer.ExecuteOne(sql)
		commit = time.Since(t0)
		c.end(call)
		if err != nil {
			c.end(root)
			c.fail(fmt.Errorf("ingest %q: %w", sql[:min(len(sql), 40)], err))
			if w.writer.InTransaction() {
				_, _ = w.writer.ExecuteOne("ROLLBACK")
			}
			return
		}
		c.stages(call, res.Timing)
	}
	c.observe("ingest", time.Since(start))
	c.end(root)
	w.commits = append(w.commits, commit)
	w.nextID += int64(batch)
	w.rows += int64(batch)
	w.sumV += addV
}

// read runs one reader iteration — the filter-aggregate, then the GROUP BY
// — and checks snapshot consistency: batches are atomic, so every count is a
// whole number of batches and never goes down.
func (w *htapIngest) read(c *client) {
	batch := int64(w.o.sizes.htapBatch)
	root := c.begin("htap_ingest.read", nil)
	start := time.Now()
	var total, matches int64
	for _, q := range []struct{ class, sql string }{{"filter_agg", htapFilterAgg}, {"group_by", htapGroupBy}} {
		c.attempted++
		call := c.begin("pipeline.Session.ExecuteOne", root)
		t0 := time.Now()
		res, err := w.reader.ExecuteOne(q.sql)
		d := time.Since(t0)
		c.end(call)
		if err != nil {
			c.end(root)
			c.fail(fmt.Errorf("%s: %w", q.class, err))
			return
		}
		c.stages(call, res.Timing)
		c.observe(q.class, d)
		rows := pipeline.ValueRows(res.Table)
		if q.class == "filter_agg" {
			matches = rows[0][0].I
		} else {
			for _, r := range rows {
				total += r[1].I
			}
		}
	}
	c.observe("read", time.Since(start))
	c.end(root)
	switch {
	case total%batch != 0 || matches%(batch/2) != 0:
		c.fail(fmt.Errorf("reader saw a torn batch: count=%d, k<50 count=%d", total, matches))
	case total < w.lastCount || matches < w.lastMatches:
		c.fail(fmt.Errorf("reader counts went down: %d -> %d", w.lastCount, total))
	}
	w.lastCount, w.lastMatches = total, matches
}

func (w *htapIngest) opsPerSecond(rec *recorder) float64 {
	return float64(rec.count("ingest")) / rec.wall.Seconds()
}

func (w *htapIngest) units(rec *recorder) float64 { return float64(rec.count("ingest")) / 1000 }

func (w *htapIngest) streamHash() string { return w.stream.String() }

// finish checks the final table against what the writer committed.
func (w *htapIngest) finish(rec *recorder) error {
	rec.attempted++
	res, err := w.reader.ExecuteOne("SELECT count(*), sum(v) FROM events")
	if err != nil {
		rec.failed++
		return err
	}
	row := pipeline.ValueRows(res.Table)[0]
	if row[0].I != w.rows || math.Abs(row[1].F-w.sumV) > 1e-6*w.sumV {
		rec.failed++
		return fmt.Errorf("events holds %d rows, sum(v)=%v; committed %d rows, sum(v)=%v", row[0].I, row[1].F, w.rows, w.sumV)
	}
	return nil
}

func (w *htapIngest) layers(pass *recorder, out map[string]float64) error {
	iters := w.o.sizes.probeIters
	out["encoding.encode_s"] = w.encodeS
	out["encoding.compression_ratio"] = w.compression
	out["concurrency.commit_us"] = us(medianDuration(w.commits))
	corpus := []string{
		"INSERT INTO events VALUES (1, 1, 1, 1.50), (2, 2, 2, 2.50), (3, 3, 3, 3.50), (4, 4, 4, 4.50)",
		"UPDATE events SET v = v + 1.0 WHERE id >= 100 AND id < 110",
		htapFilterAgg,
		htapGroupBy,
	}
	if err := probePlanning(w.eng, corpus, iters, out); err != nil {
		return err
	}
	var err error
	if out["pipeline.session_overhead_us"], err = probeSessionOverhead(w.eng, corpus[2:], iters/10+1); err != nil {
		return err
	}
	col, err := w.events.ColumnID("k")
	if err != nil {
		return err
	}
	if out["encoding.dict_scan_ns_per_row"], err = probeDictScan(w.events, col, encoding.ScanPredicate{
		Op: encoding.ScanLt, Value: types.Int(50),
	}, iters); err != nil {
		return err
	}
	out["storage.append_row_ns"], err = probeAppendRow(w.events, iters)
	return err
}

func (w *htapIngest) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}
