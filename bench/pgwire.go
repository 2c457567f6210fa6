package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
	"hyrise/internal/server"
	"hyrise/internal/types"
)

// pgwirePoint drives an in-process wire server on loopback with two
// closed-loop connections: 80 % prepared point SELECTs with binary
// parameters and results (primary), 20 % prepared autocommit INSERTs (alt).
// Keys are uniform: the engine has no row cache, so skew would change
// nothing. Server, client framing, prepared-plan replay and MVCC commit
// dominate; the planner is bypassed. This is the control for kernel and
// optimizer changes and the only workload that sees the wire path.
type pgwirePoint struct {
	o     options
	eng   *pipeline.Engine
	srv   *server.Server
	addr  string
	conns []*kvConn
	acked atomic.Int64 // inserts acknowledged since the table was created
}

type kvConn struct {
	c      *pgclient.Conn
	rng    *rand.Rand
	nextID int64
	ops    int
	stream streamHash
}

const (
	kvSelect = "SELECT id, val FROM kv WHERE id = $1"
	kvInsert = "INSERT INTO kv VALUES ($1, $2, $3)"
	kvConns  = 2
)

// kvVal is the value stored under id: a function of the seed, so every
// SELECT can be checked without remembering what was loaded.
func kvVal(seed, id int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1_000_000) / 1000
}

func (w *pgwirePoint) dial() (*pgclient.Conn, error) {
	c, err := pgclient.Dial(w.addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.Prepare("sel", kvSelect, nil); err != nil {
		return nil, err
	}
	if _, err := c.Prepare("ins", kvInsert, nil); err != nil {
		return nil, err
	}
	return c, nil
}

func (w *pgwirePoint) insert(c *pgclient.Conn, id int64, tag string) error {
	_, err := c.Exec("ins", []pgclient.Param{
		pgclient.BinaryInt8(id), pgclient.Text(tag), pgclient.BinaryFloat8(kvVal(w.o.seed, id)),
	}, nil)
	return err
}

func (w *pgwirePoint) setup() error {
	w.eng = pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	w.srv = server.New(w.eng)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = addr
	go func() { _ = w.srv.Serve() }()

	loader, err := pgclient.Dial(addr)
	if err != nil {
		return err
	}
	if _, err := loader.SimpleQuery("CREATE TABLE kv (id INT NOT NULL, tag VARCHAR(20), val FLOAT)"); err != nil {
		return err
	}
	if _, err := loader.Prepare("ins", kvInsert, nil); err != nil {
		return err
	}
	const txnRows = 1000
	for id := 0; id < w.o.sizes.kvPreload; id++ {
		if id%txnRows == 0 {
			if _, err := loader.SimpleQuery("BEGIN"); err != nil {
				return err
			}
		}
		if err := w.insert(loader, int64(id), "load"); err != nil {
			return err
		}
		if id%txnRows == txnRows-1 || id == w.o.sizes.kvPreload-1 {
			if _, err := loader.SimpleQuery("COMMIT"); err != nil {
				return err
			}
		}
	}
	w.acked.Store(int64(w.o.sizes.kvPreload))
	if err := loader.Close(); err != nil {
		return err
	}

	for i := 0; i < kvConns; i++ {
		c, err := w.dial()
		if err != nil {
			return err
		}
		w.conns = append(w.conns, &kvConn{
			c:      c,
			rng:    rand.New(rand.NewSource(w.o.seed*7919 + int64(i))),
			nextID: int64(w.o.sizes.kvPreload) + int64(i+1)*1_000_000_000,
		})
	}
	warm := newRecorder(false)
	w.mix(w.o.sizes.kvWarmup, warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return nil
}

func (w *pgwirePoint) engine() *pipeline.Engine { return w.eng }
func (w *pgwirePoint) blocks() int              { return blocksFor(w.o.sizes.kvOpsPerConn, 100) }

func (w *pgwirePoint) shape() shape {
	return shape{primary: []string{"select"}, alt: []string{"insert"}, geo: []string{"select", "insert"}}
}

func (w *pgwirePoint) run(block, of int, rec *recorder) {
	lo, hi := share(w.o.sizes.kvOpsPerConn, block, of)
	w.mix(hi-lo, rec)
}

// mix runs n operations on every connection concurrently.
func (w *pgwirePoint) mix(n int, rec *recorder) {
	var wg sync.WaitGroup
	for i, kc := range w.conns {
		wg.Add(1)
		go func(i int, kc *kvConn) {
			defer wg.Done()
			c := rec.client()
			defer rec.merge(c)
			tag := "c" + strconv.Itoa(i)
			for op := 0; op < n; op++ {
				c.attempted++
				// Every fifth operation is an INSERT, on a fixed schedule: the
				// table then grows by the same number of rows whatever the
				// seed, and data_mb is exact.
				kc.ops++
				if kc.ops%5 != 0 {
					key := int64(kc.rng.Intn(w.o.sizes.kvPreload))
					kc.stream.addInt(key)
					root := c.begin("pgwire_point.select", nil)
					call := c.begin("pgclient.Conn.Exec", root)
					start := time.Now()
					res, err := kc.c.Exec("sel", []pgclient.Param{pgclient.BinaryInt8(key)}, []int16{1, 1})
					d := time.Since(start)
					c.end(call)
					c.end(root)
					switch {
					case err != nil:
						c.fail(fmt.Errorf("select %d: %w", key, err))
					case len(res.Rows) != 1 || len(res.Rows[0]) != 2 ||
						pgclient.DecodeInt8(res.Rows[0][0]) != key ||
						pgclient.DecodeFloat8(res.Rows[0][1]) != kvVal(w.o.seed, key):
						c.fail(fmt.Errorf("select %d: wrong row", key))
					default:
						c.observe("select", d)
					}
					continue
				}
				id := kc.nextID
				kc.nextID++
				kc.stream.addInt(-id)
				root := c.begin("pgwire_point.insert", nil)
				call := c.begin("pgclient.Conn.Exec", root)
				start := time.Now()
				err := w.insert(kc.c, id, tag)
				d := time.Since(start)
				c.end(call)
				c.end(root)
				if err != nil {
					c.fail(fmt.Errorf("insert %d: %w", id, err))
					continue
				}
				w.acked.Add(1)
				c.observe("insert", d)
			}
		}(i, kc)
	}
	wg.Wait()
}

func (w *pgwirePoint) opsPerSecond(rec *recorder) float64 {
	return float64(rec.count("select")) / rec.wall.Seconds()
}

func (w *pgwirePoint) units(rec *recorder) float64 {
	return float64(rec.count("select", "insert")) / 1000
}

// finish checks that every acknowledged insert is in the table.
func (w *pgwirePoint) finish(rec *recorder) error {
	rec.attempted++
	res, err := w.conns[0].c.SimpleQuery("SELECT count(*) FROM kv")
	if err == nil && (len(res) != 1 || len(res[0].Rows) != 1 || len(res[0].Rows[0]) != 1) {
		err = fmt.Errorf("count(*) returned %d result sets, want one row of one column", len(res))
	}
	if err != nil {
		rec.failed++
		return err
	}
	got := string(res[0].Rows[0][0])
	if want := strconv.FormatInt(w.acked.Load(), 10); got != want {
		rec.failed++
		return fmt.Errorf("kv holds %s rows, want %s (preload + acknowledged inserts)", got, want)
	}
	return nil
}

func (w *pgwirePoint) streamHash() string {
	var s streamHash
	for _, kc := range w.conns {
		s.add(kc.stream.String())
	}
	return s.String()
}

func (w *pgwirePoint) layers(pass *recorder, out map[string]float64) error {
	iters := w.o.sizes.probeIters
	corpus := []string{
		"SELECT id, val FROM kv WHERE id = 4711",
		"INSERT INTO kv VALUES (4711, 'c0', 47.11)",
	}
	if err := probePlanning(w.eng, corpus, iters, out); err != nil {
		return err
	}
	var err error
	if out["pipeline.session_overhead_us"], err = probeSessionOverhead(w.eng, corpus[:1], iters); err != nil {
		return err
	}
	base := int64(w.o.sizes.kvPreload) + 9_000_000_000
	if out["concurrency.commit_us"], err = probeCommit(w.eng, iters, func(i int) string {
		id := base + int64(i)
		return fmt.Sprintf("INSERT INTO kv VALUES (%d, 'probe', %v)", id, kvVal(w.o.seed, id))
	}); err != nil {
		return err
	}
	kv, err := w.eng.StorageManager().GetTable("kv")
	if err != nil {
		return err
	}
	if out["storage.append_row_ns"], err = probeAppendRow(kv, iters); err != nil {
		return err
	}

	// Server probes, on one otherwise idle connection.
	rng := rand.New(rand.NewSource(w.o.seed))
	var connect []time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		c, err := pgclient.Dial(w.addr)
		if err != nil {
			return err
		}
		connect = append(connect, time.Since(start))
		_ = c.Close()
	}
	out["server.connect_ms"] = ms(medianDuration(connect))

	c, err := w.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	session := w.eng.NewSession()
	prepared, err := session.PrepareStatement(kvSelect)
	if err != nil {
		return err
	}
	var wire, inproc, simple []time.Duration
	for i := 0; i < iters; i++ {
		key := int64(rng.Intn(w.o.sizes.kvPreload))
		start := time.Now()
		if _, err := c.Exec("sel", []pgclient.Param{pgclient.BinaryInt8(key)}, []int16{1, 1}); err != nil {
			return err
		}
		wire = append(wire, time.Since(start))
		start = time.Now()
		if _, err := session.ExecutePreparedStatement(context.Background(), prepared, []types.Value{types.Int(key)}); err != nil {
			return err
		}
		inproc = append(inproc, time.Since(start))
		start = time.Now()
		if _, err := c.SimpleQuery("SELECT id, val FROM kv WHERE id = " + strconv.FormatInt(key, 10)); err != nil {
			return err
		}
		simple = append(simple, time.Since(start))
	}
	out["server.wire_overhead_us"] = us(medianDuration(wire)) - us(medianDuration(inproc))
	out["server.simple_query_us"] = us(medianDuration(simple))

	rows := min(10_000, w.o.sizes.kvPreload)
	var stream []time.Duration
	for i := 0; i < max(iters/10, 5); i++ {
		start := time.Now()
		res, err := c.SimpleQuery("SELECT id, val FROM kv WHERE id < " + strconv.Itoa(rows))
		if err != nil {
			return err
		}
		if len(res[0].Rows) != rows {
			return fmt.Errorf("range probe returned %d rows, want %d", len(res[0].Rows), rows)
		}
		stream = append(stream, time.Since(start))
	}
	out["server.rows_per_s"] = float64(rows) / medianDuration(stream).Seconds()
	return nil
}

func (w *pgwirePoint) close() {
	for _, kc := range w.conns {
		_ = kc.c.Close()
	}
	if w.srv != nil {
		w.srv.Shutdown(2 * time.Second)
	}
	if w.eng != nil {
		w.eng.Close()
	}
}
