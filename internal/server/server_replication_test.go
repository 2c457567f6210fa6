package server

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hyrise/internal/pipeline"
	"hyrise/internal/replication"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// replicaPair is a durable primary engine shipping to an in-memory follower
// engine over a net.Pipe transport, wired exactly as the facade wires them.
type replicaPair struct {
	primary  *pipeline.Engine
	follower *pipeline.Engine
	shipper  *replication.Primary
	applier  *replication.Follower
}

func newReplicaPair(t *testing.T) *replicaPair {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.DataDir = t.TempDir()
	cfg.SyncMode = "commit"
	primary, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	shipper := replication.NewPrimary(primary.Persistence(), primary.TransactionManager(), primary.Metrics())
	t.Cleanup(shipper.Close)

	fcfg := pipeline.DefaultConfig()
	follower := pipeline.NewEngine(fcfg, nil)
	t.Cleanup(follower.Close)
	dial := func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go shipper.ServeConn(c2, "in-process") //nolint:errcheck
		return c1, nil
	}
	applier := replication.NewFollower(follower.StorageManager(), follower.TransactionManager(), follower.Metrics(), dial)
	t.Cleanup(applier.Stop)
	follower.SetReadOnly(true)
	follower.SetPromoteFunc(func() error {
		applier.Promote()
		follower.SetReadOnly(false)
		return nil
	})
	follower.StorageManager().RegisterMetaTable("meta_replication", func() (*storage.Table, error) {
		st := applier.Status()
		defs := []storage.ColumnDefinition{
			{Name: "role", Type: types.TypeString},
			{Name: "state", Type: types.TypeString},
			{Name: "applied_lsn", Type: types.TypeInt64},
		}
		row := []types.Value{types.Str("replica"), types.Str(string(st.State)), types.Int(st.AppliedLSN)}
		return storage.NewTableFromRows("meta_replication", defs, [][]types.Value{row})
	})
	applier.Start()
	return &replicaPair{primary: primary, follower: follower, shipper: shipper, applier: applier}
}

// sync blocks until the follower has applied the primary's commit barrier.
func (p *replicaPair) sync(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.applier.WaitForCommit(ctx, p.primary.TransactionManager().LastCommitID()); err != nil {
		t.Fatalf("follower did not reach barrier: %v", err)
	}
}

func (p *replicaPair) exec(t *testing.T, sql string) {
	t.Helper()
	if _, err := p.primary.NewSession().ExecuteOne(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// serveEngine starts a pgwire server over an arbitrary engine.
func serveEngine(t *testing.T, e *pipeline.Engine) (*Server, string) {
	t.Helper()
	srv := New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)
	return srv, addr
}

// simpleQueryCode runs a simple query and additionally captures the SQLSTATE
// of an error response (field 'C').
func (c *pgClient) simpleQueryCode(t *testing.T, sql string) (queryResult, string) {
	t.Helper()
	c.send(t, 'Q', append([]byte(sql), 0))
	var res queryResult
	var code string
	for {
		msgType, payload := c.read(t)
		switch msgType {
		case 'T':
			res.columns = parseRowDescription(payload)
		case 'D':
			res.rows = append(res.rows, parseDataRow(payload))
		case 'C':
			res.tag = strings.TrimRight(string(payload), "\x00")
		case 'E':
			res.err = parseError(payload)
			code = parseErrorField(payload, 'C')
		case 'Z':
			return res, code
		}
	}
}

// parseErrorField extracts one field of an ErrorResponse by its type byte.
func parseErrorField(payload []byte, want byte) string {
	for len(payload) > 0 && payload[0] != 0 {
		code := payload[0]
		payload = payload[1:]
		idx := 0
		for payload[idx] != 0 {
			idx++
		}
		if code == want {
			return string(payload[:idx])
		}
		payload = payload[idx+1:]
	}
	return ""
}

// TestFollowerRejectsWritesOverWire: INSERT/DDL at a read-only follower fail
// fast over pgwire with SQLSTATE 25006 read_only_sql_transaction.
func TestFollowerRejectsWritesOverWire(t *testing.T) {
	p := newReplicaPair(t)
	p.exec(t, "CREATE TABLE t (a INT NOT NULL)")
	p.exec(t, "INSERT INTO t VALUES (1)")
	p.sync(t)

	_, addr := serveEngine(t, p.follower)
	c := dial(t, addr)
	for _, sql := range []string{
		"INSERT INTO t VALUES (2)",
		"UPDATE t SET a = 9",
		"DELETE FROM t",
		"CREATE TABLE nope (a INT NOT NULL)",
		"DROP TABLE t",
	} {
		res, code := c.simpleQueryCode(t, sql)
		if res.err == "" || code != "25006" {
			t.Errorf("%s: err=%q code=%q, want SQLSTATE 25006", sql, res.err, code)
		}
	}
	// Reads still flow.
	res, code := c.simpleQueryCode(t, "SELECT a FROM t")
	if res.err != "" || code != "" || len(res.rows) != 1 || res.rows[0][0] != "1" {
		t.Fatalf("follower read = %+v (code %q)", res, code)
	}
}

// TestFollowerPromoteViaWire drives the failover control path through SQL:
// SELECT promote_replica() flips the follower read-write.
func TestFollowerPromoteViaWire(t *testing.T) {
	p := newReplicaPair(t)
	p.exec(t, "CREATE TABLE t (a INT NOT NULL)")
	p.exec(t, "INSERT INTO t VALUES (1)")
	p.sync(t)

	_, addr := serveEngine(t, p.follower)
	c := dial(t, addr)
	res := c.simpleQuery(t, "SELECT promote_replica()")
	if res.err != "" || len(res.rows) != 1 || res.rows[0][0] != "1" {
		t.Fatalf("promote_replica() = %+v", res)
	}
	if res := c.simpleQuery(t, "INSERT INTO t VALUES (2)"); res.err != "" {
		t.Fatalf("write after promote: %v", res.err)
	}
	res = c.simpleQuery(t, "SELECT count(*) FROM t")
	if res.err != "" || res.rows[0][0] != "2" {
		t.Fatalf("count after promote = %+v", res)
	}
}

// TestMetaReplicationOverWire reads the replication topology through the
// wire protocol — what the console's \replication does.
func TestMetaReplicationOverWire(t *testing.T) {
	p := newReplicaPair(t)
	p.exec(t, "CREATE TABLE t (a INT NOT NULL)")
	p.exec(t, "INSERT INTO t VALUES (1)")
	p.sync(t)

	_, addr := serveEngine(t, p.follower)
	c := dial(t, addr)
	res := c.simpleQuery(t, "SELECT role, state, applied_lsn FROM meta_replication")
	if res.err != "" || len(res.rows) != 1 {
		t.Fatalf("meta_replication = %+v", res)
	}
	if res.rows[0][0] != "replica" || res.rows[0][1] != string(replication.StateStreaming) {
		t.Fatalf("meta_replication row = %v", res.rows[0])
	}
	if res.rows[0][2] == "0" {
		t.Fatalf("applied_lsn = 0, want > 0 after replication")
	}
}

// staticRouter routes every eligible read to one fixed engine.
type staticRouter struct{ eng *pipeline.Engine }

func (r staticRouter) AcquireRead(context.Context) (*pipeline.Engine, bool) { return r.eng, true }

// TestReadRoutingOverWire: with a router installed, SELECTs over user tables
// run on the replica engine; writes, meta reads, and in-transaction reads
// stay local.
func TestReadRoutingOverWire(t *testing.T) {
	p := newReplicaPair(t)
	p.exec(t, "CREATE TABLE t (a INT NOT NULL)")
	p.exec(t, "INSERT INTO t VALUES (1)")
	p.sync(t)

	srv, addr := serveEngine(t, p.primary)
	srv.SetReadRouter(staticRouter{eng: p.follower})
	c := dial(t, addr)

	res := c.simpleQuery(t, "SELECT a FROM t")
	if res.err != "" || len(res.rows) != 1 || res.rows[0][0] != "1" {
		t.Fatalf("routed SELECT = %+v", res)
	}
	if got := srv.routedReads.Value(); got != 1 {
		t.Fatalf("server_routed_reads = %d, want 1", got)
	}

	// Writes are never routed (the follower would reject them with 25006).
	if res := c.simpleQuery(t, "INSERT INTO t VALUES (2)"); res.err != "" {
		t.Fatalf("primary INSERT through routing server: %v", res.err)
	}
	// meta_* reads answer with local engine state, not replica state.
	if res := c.simpleQuery(t, "SELECT name FROM meta_metrics"); res.err != "" {
		t.Fatalf("meta read: %v", res.err)
	}
	// Reads inside an explicit transaction stay on the session's engine.
	if res := c.simpleQuery(t, "BEGIN"); res.err != "" {
		t.Fatal(res.err)
	}
	if res := c.simpleQuery(t, "SELECT a FROM t"); res.err != "" {
		t.Fatal(res.err)
	}
	if res := c.simpleQuery(t, "COMMIT"); res.err != "" {
		t.Fatal(res.err)
	}
	if got := srv.routedReads.Value(); got != 1 {
		t.Fatalf("server_routed_reads after non-routable statements = %d, want 1", got)
	}
}
