package hyrise

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/pipeline"
	"hyrise/internal/replication"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func durableConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DataDir = t.TempDir()
	cfg.SyncMode = "commit"
	return cfg
}

// waitBarrier blocks until the replica has applied the primary's current
// commit barrier — the consistency protocol every routed read follows.
func waitBarrier(t *testing.T, primary, replica *Database) {
	t.Helper()
	barrier := primary.Engine().TransactionManager().LastCommitID()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := replica.Follower().WaitForCommit(ctx, barrier); err != nil {
		t.Fatalf("replica did not reach commit barrier %d: %v", barrier, err)
	}
	// The follower publishes the commit id it has applied before it reports
	// the state it is in: a bootstrap that reached the barrier can still say
	// "bootstrapping" for a moment, and AcquireRead skips such a replica.
	for replica.Follower().Status().State != replication.StateStreaming {
		if ctx.Err() != nil {
			t.Fatalf("replica reached commit barrier %d but reports %q, not streaming", barrier, replica.Follower().Status().State)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustRows(t *testing.T, db *Database, sql string) [][]string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return Rows(res)
}

func TestReplicaConsistentReadsAndPromote(t *testing.T) {
	db, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE accounts (id INT NOT NULL, balance INT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300)"); err != nil {
		t.Fatal(err)
	}

	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)

	const q = "SELECT id, balance FROM accounts ORDER BY id"
	if got, want := mustRows(t, replica, q), mustRows(t, db, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica rows = %v, primary rows = %v", got, want)
	}

	// The replica keeps up with new commits at the barrier.
	if _, err := db.Execute("INSERT INTO accounts VALUES (4, 400)"); err != nil {
		t.Fatal(err)
	}
	waitBarrier(t, db, replica)
	if got, want := mustRows(t, replica, q), mustRows(t, db, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("after tail: replica rows = %v, primary rows = %v", got, want)
	}

	// Writes and DDL are rejected while the replica is read-only.
	if _, err := replica.Execute("INSERT INTO accounts VALUES (9, 900)"); !errors.Is(err, pipeline.ErrReadOnly) {
		t.Fatalf("replica INSERT error = %v, want ErrReadOnly", err)
	}
	if _, err := replica.Execute("CREATE TABLE nope (a INT NOT NULL)"); !errors.Is(err, pipeline.ErrReadOnly) {
		t.Fatalf("replica DDL error = %v, want ErrReadOnly", err)
	}

	// meta_replication reports both sides of the topology.
	prows := mustRows(t, db, "SELECT role, state FROM meta_replication")
	if len(prows) != 1 || prows[0][0] != "primary" {
		t.Fatalf("primary meta_replication = %v", prows)
	}
	rrows := mustRows(t, replica, "SELECT role, state FROM meta_replication")
	if len(rrows) != 1 || rrows[0][0] != "replica" || rrows[0][1] != string(replication.StateStreaming) {
		t.Fatalf("replica meta_replication = %v", rrows)
	}

	// Promotion through SQL: the replica becomes read-write.
	got := mustRows(t, replica, "SELECT promote_replica()")
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("promote_replica() = %v", got)
	}
	if _, err := replica.Execute("INSERT INTO accounts VALUES (5, 500)"); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	// A second promote is a no-op reporting 0.
	if got := mustRows(t, replica, "SELECT promote_replica()"); got[0][0] != "0" {
		t.Fatalf("second promote_replica() = %v", got)
	}
}

func TestAcquireReadRoutesToReplica(t *testing.T) {
	db, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}

	// No replicas: reads stay local.
	if _, ok := db.AcquireRead(context.Background()); ok {
		t.Fatal("AcquireRead routed with no replicas attached")
	}

	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)

	eng, ok := db.AcquireRead(context.Background())
	if !ok || eng != replica.Engine() {
		t.Fatalf("AcquireRead = (%p, %v), want replica engine %p", eng, ok, replica.Engine())
	}
	// The routed engine serves the primary's rows at the barrier.
	res, err := eng.NewSession().ExecuteOne("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if got := Rows(res); !reflect.DeepEqual(got, [][]string{{"1"}, {"2"}}) {
		t.Fatalf("routed read rows = %v", got)
	}
}

// TestTPCHPrimaryReplicaDifferential is the acceptance check for consistent
// replica reads: TPC-H Q1, Q3, and Q6 must return bit-for-bit identical rows
// on the primary and on a replica queried at the same commit barrier.
func TestTPCHPrimaryReplicaDifferential(t *testing.T) {
	db, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const sf = 0.001
	if err := db.GenerateTPCH(sf, 1000); err != nil {
		t.Fatal(err)
	}
	// Bulk loads bypass the WAL; checkpoint so the replica's bootstrap
	// snapshot carries the generated tables.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The bulk load commits "at the beginning of time" and leaves the commit
	// barrier untouched; commit a marker write so waitBarrier actually waits
	// for the bootstrap to land.
	if _, err := db.Execute("CREATE TABLE repl_marker (a INT NOT NULL); INSERT INTO repl_marker VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)

	queries := TPCHQueries(sf)
	for _, qn := range []int{1, 3, 6} {
		primaryRows := mustRows(t, db, queries[qn])
		replicaRows := mustRows(t, replica, queries[qn])
		if !reflect.DeepEqual(primaryRows, replicaRows) {
			t.Errorf("Q%d diverged:\n primary = %v\n replica = %v", qn, primaryRows, replicaRows)
		}
		if len(primaryRows) == 0 {
			t.Errorf("Q%d returned no rows on the primary", qn)
		}
	}
}

// TestFailoverPromoteAndRepoint drives the failover sequence: the primary
// dies, one replica is promoted, the surviving replica is re-pointed at the
// new primary and converges on its state (including post-promote writes).
func TestFailoverPromoteAndRepoint(t *testing.T) {
	db, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}

	// r1 is durable so it can ship its own WAL once promoted; r2 stays
	// in-memory.
	r1, err := db.AttachReplica(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	waitBarrier(t, db, r1)
	waitBarrier(t, db, r2)

	// Primary dies.
	db.Close()

	// Promote r1 and write through it.
	if err := r1.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Execute("INSERT INTO t VALUES (3)"); err != nil {
		t.Fatalf("write on promoted replica: %v", err)
	}

	// Re-point r2 at the new primary; it must re-bootstrap and converge.
	if err := r2.RepointTo(r1); err != nil {
		t.Fatal(err)
	}
	waitBarrier(t, r1, r2)
	const q = "SELECT a FROM t ORDER BY a"
	want := [][]string{{"1"}, {"2"}, {"3"}}
	if got := mustRows(t, r1, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("new primary rows = %v, want %v", got, want)
	}
	if got := mustRows(t, r2, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-pointed replica rows = %v, want %v", got, want)
	}
	// Writes on r2 are still rejected: it follows the new primary.
	if _, err := r2.Execute("INSERT INTO t VALUES (9)"); !errors.Is(err, pipeline.ErrReadOnly) {
		t.Fatalf("r2 INSERT error = %v, want ErrReadOnly", err)
	}
}

func TestOpenReplicaOverTCP(t *testing.T) {
	db, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Execute("CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	addr, err := db.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	replica, err := OpenReplica(DefaultConfig(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)
	if got := mustRows(t, replica, "SELECT a FROM t"); !reflect.DeepEqual(got, [][]string{{"7"}}) {
		t.Fatalf("TCP replica rows = %v", got)
	}
	st := replica.ReplicationStatus()
	if len(st) != 1 || st[0].Role != "replica" || st[0].Peer != addr {
		t.Fatalf("ReplicationStatus = %+v", st)
	}

	// Repoint re-targets the replica at another primary over TCP: it
	// bootstraps from that primary's state and names it as its peer. The
	// other primary commits more often, so its barrier lies past the first's.
	other, err := OpenErr(durableConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for _, sql := range []string{"CREATE TABLE t (a INT NOT NULL)", "INSERT INTO t VALUES (8)", "INSERT INTO t VALUES (9)", "INSERT INTO t VALUES (10)"} {
		if _, err := other.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	otherAddr, err := other.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Repoint(otherAddr); err != nil {
		t.Fatal(err)
	}
	waitBarrier(t, other, replica)
	if got := mustRows(t, replica, "SELECT a FROM t ORDER BY a"); !reflect.DeepEqual(got, [][]string{{"8"}, {"9"}, {"10"}}) {
		t.Fatalf("re-pointed replica rows = %v", got)
	}
	if st := replica.ReplicationStatus(); len(st) != 1 || st[0].Peer != otherAddr {
		t.Fatalf("ReplicationStatus after Repoint = %+v", st)
	}
	if err := db.Repoint(otherAddr); err == nil {
		t.Fatal("a primary accepted Repoint")
	}
}

// TestCrashRecoveryPrunedDML pins the chunk ids that DML writes into its redo
// records: a DELETE and an UPDATE whose WHERE clauses let the filters skip the
// leading chunks of the table must invalidate the same rows live, after
// snapshot+WAL recovery, and on a replica at the commit barrier. When pruning
// handed the operators a table view without the skipped chunks, the row ids in
// the log counted chunks of that view, and replay invalidated rows of chunk 0.
func TestCrashRecoveryPrunedDML(t *testing.T) {
	cfg := durableConfig(t)
	db, err := OpenErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// 14 rows in chunks of 4: ids 0-3, 4-7, 8-11, 12-13, every chunk sealed
	// and filtered. Bulk loads bypass the WAL, so checkpoint them.
	var csv strings.Builder
	for id := 0; id < 14; id++ {
		fmt.Fprintf(&csv, "%d,%d\n", id, 10*id)
	}
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "v", Type: types.TypeInt64}}
	if err := db.LoadCSV("t", defs, strings.NewReader(csv.String()), 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica) // bootstrapped: the DML below arrives as WAL

	const q = "SELECT id, v FROM t ORDER BY id"
	want := [][]string{}
	for _, id := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		want = append(want, []string{fmt.Sprint(id), fmt.Sprint(10 * id)})
	}
	want = append(want, []string{"12", "1120"}, []string{"13", "1130"})
	for _, sql := range []string{
		"DELETE FROM t WHERE id >= 8 AND id < 10",  // skips chunks 0, 1 and 3
		"UPDATE t SET v = v + 1000 WHERE id >= 12", // skips chunks 0, 1 and 2
	} {
		if _, err := db.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := mustRows(t, db, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("live rows = %v, want %v", got, want)
	}

	waitBarrier(t, db, replica)
	if got := mustRows(t, replica, q); !reflect.DeepEqual(got, want) {
		t.Errorf("replica rows = %v, want %v", got, want)
	}

	// Crash: recover a copy of the data directory taken without closing.
	crash := cfg
	crash.DataDir = t.TempDir()
	if err := os.CopyFS(crash.DataDir, os.DirFS(cfg.DataDir)); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenErr(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := mustRows(t, recovered, q); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered rows = %v, want %v", got, want)
	}
}

// TestCrashRecoveryFindsOverwrittenSealedRow: two sessions interleave their
// INSERTs and the one holding the higher offsets commits first, so replay —
// on a replica and after a crash — seals chunk 1 around placeholders and only
// then fills them with the late commit's rows, whose ids lie outside
// everything the chunk held when it was sealed. The chunk's zone is written
// with the rows, so `id = ?` and ranges still find them; bounds fixed at seal
// time would prune the chunk.
func TestCrashRecoveryFindsOverwrittenSealedRow(t *testing.T) {
	cfg := durableConfig(t)
	db, err := OpenErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "v", Type: types.TypeInt64}}
	if err := db.LoadCSV("t", defs, strings.NewReader("1,10\n2,20\n"), 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)

	// A reader older than the two commits holds the low-water mark, so the
	// primary keeps the begin arrays they made, as replay does.
	pin := db.Engine().TransactionManager().New()
	defer pin.Rollback()
	late, early := db.Session(), db.Session()
	for _, step := range []struct {
		s   *pipeline.Session
		sql string
	}{
		{late, "BEGIN"}, {early, "BEGIN"},
		{late, "INSERT INTO t VALUES (100, 1000)"}, // 1/0
		{early, "INSERT INTO t VALUES (30, 300)"},  // 1/1
		{late, "INSERT INTO t VALUES (-5, -50)"},   // 1/2
		{early, "INSERT INTO t VALUES (31, 310)"},  // 1/3: chunk 1 is full
		{early, "INSERT INTO t VALUES (32, 320)"},  // 2/0: seals chunk 1
		{early, "COMMIT"}, {late, "COMMIT"},
	} {
		if _, err := step.s.ExecuteOne(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	waitBarrier(t, db, replica)
	crash := cfg
	crash.DataDir = t.TempDir()
	if err := os.CopyFS(crash.DataDir, os.DirFS(cfg.DataDir)); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenErr(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	// Replay goes through the same stores as the primary's transactions, and a
	// restore stamps whole blocks: no side holds more MVCC cells than the primary.
	mvccBytes := func(side *Database) (n int64) {
		table, err := side.StorageManager().GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range table.Chunks() {
			n += c.MvccData().MemoryUsage()
		}
		return n
	}
	for name, side := range map[string]*Database{"primary": db, "replica": replica, "recovered": recovered} {
		if got, limit := mvccBytes(side), mvccBytes(db); got > limit {
			t.Errorf("%s: %d bytes of MVCC columns, the primary has %d", name, got, limit)
		}
		for sql, want := range map[string][][]string{
			"SELECT id, v FROM t ORDER BY id":                  {{"-5", "-50"}, {"1", "10"}, {"2", "20"}, {"30", "300"}, {"31", "310"}, {"32", "320"}, {"100", "1000"}},
			"SELECT v FROM t WHERE id = 100":                   {{"1000"}},
			"SELECT v FROM t WHERE id = -5":                    {{"-50"}},
			"SELECT id FROM t WHERE id BETWEEN 90 AND 110":     {{"100"}},
			"SELECT id FROM t WHERE id < 0":                    {{"-5"}},
			"SELECT id FROM t WHERE id >= 30 ORDER BY id":      {{"30"}, {"31"}, {"32"}, {"100"}},
			"SELECT count(*) FROM t WHERE id BETWEEN 3 AND 29": {{"0"}},
		} {
			if got := mustRows(t, side, sql); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s = %v, want %v", name, sql, got, want)
			}
		}
		table, err := side.StorageManager().GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if z, _ := table.GetChunk(1).Zone(0); !table.GetChunk(1).IsImmutable() || z.Min.I > -5 || z.Max.I < 100 {
			t.Errorf("%s: chunk 1 sealed=%v with id zone %v..%v, want a sealed chunk covering -5..100", name, table.GetChunk(1).IsImmutable(), z.Min, z.Max)
		}
	}
}

// TestCrashSealedChunkReplay: a chunk seals once, wherever its rows come from.
// On the primary the append that fills chunk 1 seals it while offset 0 still
// belongs to an open transaction. A crash there recovers a log in which that
// offset is a placeholder nothing will fill: the chunk seals when the replay
// ends. A crash after the late commit — and the replica, which applies the same
// frames — seals it with the overwrite that fills the placeholder, not before:
// the row would be written into a frozen segment. Every side finds every row.
func TestCrashSealedChunkReplay(t *testing.T) {
	cfg := durableConfig(t)
	db, err := OpenErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "tag", Type: types.TypeString}}
	if err := db.LoadCSV("t", defs, strings.NewReader("1,a\n2,b\n"), 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica) // streaming: what follows reaches it as log frames

	crashCopy := func() *Database {
		t.Helper()
		crash := cfg
		crash.DataDir = t.TempDir()
		if err := os.CopyFS(crash.DataDir, os.DirFS(cfg.DataDir)); err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenErr(crash)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recovered.Close() })
		return recovered
	}
	check := func(name string, side *Database, ids ...string) {
		t.Helper()
		var got []string
		for _, row := range mustRows(t, side, "SELECT id FROM t ORDER BY id") {
			got = append(got, row[0])
		}
		if !reflect.DeepEqual(got, ids) {
			t.Errorf("%s: ids %v, want %v", name, got, ids)
		}
		for _, id := range ids {
			if got := mustRows(t, side, "SELECT id FROM t WHERE id = "+id); len(got) != 1 || got[0][0] != id {
				t.Errorf("%s: point read of id %s = %v", name, id, got)
			}
		}
		table, err := side.StorageManager().GetTable("t")
		if err != nil {
			t.Fatal(err)
		}
		// The load sealed chunk 0 on the primary; the other sides restore it
		// from the snapshot as it was, without sealing it again.
		loaded := int64(0)
		if side == db {
			loaded = 1
		}
		chunk := table.GetChunk(1)
		if n, _ := side.StorageManager().SealStats(); n != loaded+1 || !chunk.IsImmutable() || chunk.SealNS() <= 0 {
			t.Errorf("%s: %d chunks sealed, chunk 1 immutable=%v seal_ns=%d: want it sealed exactly once", name, n-loaded, chunk.IsImmutable(), chunk.SealNS())
		}
		if _, plain := chunk.GetSegment(1).(*storage.StringSegment); plain {
			t.Errorf("%s: the constant tag column of the sealed chunk is still unencoded", name)
		}
	}

	late, early := db.Session(), db.Session()
	for _, step := range []struct {
		s   *pipeline.Session
		sql string
	}{
		{late, "BEGIN"}, {late, "INSERT INTO t VALUES (100, 'load')"}, // 1/0
		{early, "BEGIN"},
		{early, "INSERT INTO t VALUES (30, 'load')"}, {early, "INSERT INTO t VALUES (31, 'load')"},
		{early, "INSERT INTO t VALUES (32, 'load')"}, // 1/3 fills and seals chunk 1 on the primary
		{early, "COMMIT"},
	} {
		if _, err := step.s.ExecuteOne(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	waitBarrier(t, db, replica)
	check("primary, late transaction open", db, "1", "2", "30", "31", "32")
	check("crash before the late commit", crashCopy(), "1", "2", "30", "31", "32")
	rtable, err := replica.StorageManager().GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if rtable.GetChunk(1).IsImmutable() {
		t.Error("replica sealed chunk 1 while offset 0 is a placeholder a later commit owns")
	}

	if _, err := late.ExecuteOne("COMMIT"); err != nil {
		t.Fatal(err)
	}
	waitBarrier(t, db, replica)
	for name, side := range map[string]*Database{"primary": db, "replica": replica, "crash after the late commit": crashCopy()} {
		check(name, side, "1", "2", "30", "31", "32", "100")
	}
}

// TestStoredStringsAreStringSegments: no stored chunk holds a string column as
// a value segment — not a growing tail, a column sealed Unencoded, a chunk
// restored from a snapshot or a replica's chunk, bootstrapped or streamed.
// Only an operator's output wraps a []string.
func TestStoredStringsAreStringSegments(t *testing.T) {
	cfg := durableConfig(t)
	db, err := OpenErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "tag", Type: types.TypeString, Nullable: true}}
	if err := db.LoadCSV("t", defs, strings.NewReader("1,a\n2,\n3,c\n4,d\n5,e\n"), 4); err != nil {
		t.Fatal(err)
	}
	plain, err := db.StorageManager().GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := encoding.EncodeTable(plain, &encoding.Spec{Encoding: encoding.Unencoded}, nil); err != nil {
		t.Fatal(err)
	}
	mustExecute(t, db, "CREATE TABLE kv (id INT NOT NULL, tag VARCHAR(20))")
	mustExecute(t, db, "INSERT INTO kv VALUES (1, 'x'), (2, NULL), (3, 'z')")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	mustExecute(t, db, "INSERT INTO kv VALUES (4, 'streamed')")
	waitBarrier(t, db, replica)
	restored := cfg
	restored.DataDir = t.TempDir()
	if err := os.CopyFS(restored.DataDir, os.DirFS(cfg.DataDir)); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenErr(restored)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for name, side := range map[string]*Database{"primary": db, "replica": replica, "restored": recovered} {
		unencoded := 0
		for _, table := range []string{"t", "kv"} {
			tbl, err := side.StorageManager().GetTable(table)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range tbl.Chunks() {
				switch c.GetSegment(1).(type) {
				case *storage.ValueSegment[string]:
					t.Errorf("%s: chunk %d of %s holds its strings in a value segment", name, ci, table)
				case *storage.StringSegment:
					unencoded++
				}
			}
		}
		if unencoded != 3 { // t's two chunks sealed Unencoded, kv's tail
			t.Errorf("%s: %d string columns unencoded, want 3", name, unencoded)
		}
	}
}

// TestCrashRestoreKeepsSeals: a chunk restored from a snapshot is the chunk its
// seal left — a recovered copy and a replica bootstrapped from the snapshot
// hold, chunk for chunk, the encodings, the value compression and the bins
// the primary holds, for the chunks a CSV load sealed, the chunks INSERTs
// sealed before the checkpoint, and the chunk the log seals after it. A full
// chunk's tags are long enough for FSST to pay, a two-row one's are not; every
// chunk's val is decimal.
func TestCrashRestoreKeepsSeals(t *testing.T) {
	cfg := durableConfig(t)
	db, err := OpenErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tag := func(id int) string { return fmt.Sprintf("%s%d", strings.Repeat("carefully final deposits ", 40), id) }
	defs := []storage.ColumnDefinition{{Name: "id", Type: types.TypeInt64}, {Name: "tag", Type: types.TypeString}, {Name: "val", Type: types.TypeFloat64}}
	var csv strings.Builder
	for id, val := range []string{"0.5", "7.5", "3.5", "9.5", "1.5", "2.5"} {
		fmt.Fprintf(&csv, "%d,%s,%s\n", id, tag(id), val)
	}
	if err := db.LoadCSV("t", defs, strings.NewReader(csv.String()), 4); err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		t.Helper()
		for id := from; id < to; id++ {
			if _, err := db.Execute(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', %d.25)", id, tag(id), id*7%11)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(6, 16) // chunk 1 was sealed by the load: chunks 2 and 3 fill, chunk 4 holds two rows
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replica, err := db.AttachReplica(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitBarrier(t, db, replica)
	insert(16, 18) // chunk 4 fills after the checkpoint: sealed by the log on the other sides
	waitBarrier(t, db, replica)
	crash := cfg
	crash.DataDir = t.TempDir()
	if err := os.CopyFS(crash.DataDir, os.DirFS(cfg.DataDir)); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenErr(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	want := seals(t, db)
	if len(want) != 5 || !strings.Contains(want[1], "bins") || !strings.Contains(want[3], "bins") ||
		!strings.Contains(want[0], "FSST") || strings.Contains(want[1], "FSST") {
		t.Fatalf("primary chunks: %q, want five, the load's and the inserts' sealed with bins, full ones packed", want)
	}
	for _, w := range want {
		if !strings.Contains(w, "decimal(") {
			t.Fatalf("primary chunks: %q, want every val (halves and quarters) frame-of-reference over its decimals", want)
		}
	}
	const packed = "SELECT chunk_id FROM meta_segments WHERE table_name = 't' AND value_compression = 'FSST' ORDER BY chunk_id"
	wantPacked := queryRows(t, db, packed)
	for name, side := range map[string]*Database{"recovered": recovered, "replica": replica} {
		if got := seals(t, side); !reflect.DeepEqual(got, want) {
			t.Errorf("%s chunks:\n got %q\nwant %q", name, got, want)
		}
		if got := queryRows(t, side, packed); !reflect.DeepEqual(got, wantPacked) {
			t.Errorf("%s: meta_segments packs chunks %v, the primary %v", name, got, wantPacked)
		}
	}
}

func queryRows(t *testing.T, side *Database, sql string) [][]string {
	t.Helper()
	res, err := side.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return Rows(res)
}

// seals describes each chunk of table t as its seal left it: immutable or
// not, and per column the encoding, the value compression and the bins.
func seals(t *testing.T, side *Database) []string {
	t.Helper()
	table, err := side.StorageManager().GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range table.Chunks() {
		s := fmt.Sprint(c.IsImmutable())
		for col := range table.ColumnDefinitions() {
			id := types.ColumnID(col)
			spec, _ := encoding.SpecOf(c.GetSegment(id))
			s += " | " + spec.String() + " " + encoding.ValueCompression(c.GetSegment(id))
			if z, _ := c.Zone(id); z.Bins != nil {
				s += fmt.Sprintf(" bins %v", z.Bins)
			}
		}
		out = append(out, s)
	}
	return out
}
