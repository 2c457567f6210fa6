package hyrise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hyrise/internal/pipeline"
	"hyrise/internal/replication"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Replication facade: a durable primary ships its WAL (and snapshots for
// catch-up) to follower databases, which replay it continuously and serve
// consistent reads at a commit-barrier LSN. Followers can be in-process
// (AttachReplica, net.Pipe transport) or remote (ServeReplication +
// OpenReplica over TCP) — both carry the identical wire framing. The Database
// itself implements server.ReadRouter, so a pgwire server pointed at a
// primary with attached replicas routes eligible SELECTs to the least-lagged
// follower after waiting for it to pass the primary's commit barrier.

// replicaDialTimeout bounds one TCP dial to the primary's replication port.
const replicaDialTimeout = 5 * time.Second

// readRouteWait bounds how long a routed read waits for a replica to reach
// the primary's commit barrier before falling back to the primary.
const readRouteWait = 2 * time.Second

// replState holds a database's replication role: shipper when primary,
// follower when replica, plus the in-process replicas used for read routing.
type replState struct {
	mu          sync.Mutex
	primary     *replication.Primary
	follower    *replication.Follower
	primaryPeer string // follower side: where the primary is
	replicas    []*Database
	rr          int // round-robin cursor over replicas
}

// primaryShipper lazily creates the database's WAL shipper. Replication
// requires durability: the shipper streams the on-disk WAL.
func (db *Database) primaryShipper() (*replication.Primary, error) {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	if db.repl.primary != nil {
		return db.repl.primary, nil
	}
	pm := db.engine.Persistence()
	if pm == nil {
		return nil, errors.New("hyrise: replication requires a durable primary (set Config.DataDir)")
	}
	db.repl.primary = replication.NewPrimary(pm, db.engine.TransactionManager(), db.engine.Metrics())
	return db.repl.primary, nil
}

// ServeReplication starts the replication listener: remote followers created
// with OpenReplica dial this address. It returns the bound address (useful
// with port 0).
func (db *Database) ServeReplication(addr string) (string, error) {
	p, err := db.primaryShipper()
	if err != nil {
		return "", err
	}
	return p.Listen(addr)
}

// AttachReplica opens an in-process read replica of this database connected
// through an in-memory pipe (the wire framing is identical to TCP). The
// replica bootstraps from a snapshot, tails the WAL, and serves reads at the
// commit barrier; it is registered for read routing (see AcquireRead).
func (db *Database) AttachReplica(cfg Config) (*Database, error) {
	p, err := db.primaryShipper()
	if err != nil {
		return nil, err
	}
	dial := func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go p.ServeConn(c2, "in-process") //nolint:errcheck // session errors surface via follower reconnect
		return c1, nil
	}
	replica, err := newReplica(cfg, dial, "in-process")
	if err != nil {
		return nil, err
	}
	db.repl.mu.Lock()
	db.repl.replicas = append(db.repl.replicas, replica)
	db.repl.mu.Unlock()
	return replica, nil
}

// OpenReplica opens a read replica of the primary serving replication at
// primaryAddr (see ServeReplication). The replica reconnects with backoff on
// transport failure and re-bootstraps from a snapshot whenever its position
// is no longer covered by the primary's log.
func OpenReplica(cfg Config, primaryAddr string) (*Database, error) {
	dial := func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", primaryAddr, replicaDialTimeout)
	}
	return newReplica(cfg, dial, primaryAddr)
}

// newReplica builds the follower database: a read-only engine plus the
// streaming applier, with promote_replica() wired.
func newReplica(cfg Config, dial func() (io.ReadWriteCloser, error), peer string) (*Database, error) {
	cfg.UseMvcc = true // replicated rows carry MVCC begin/end stamps
	rdb, err := OpenErr(cfg)
	if err != nil {
		return nil, err
	}
	engine := rdb.engine
	f := replication.NewFollower(engine.StorageManager(), engine.TransactionManager(), engine.Metrics(), dial)
	rdb.repl.follower = f
	rdb.repl.primaryPeer = peer
	engine.SetReadOnly(true)
	engine.SetPromoteFunc(rdb.Promote)
	f.Start()
	return rdb, nil
}

// Follower exposes the replication applier of a replica database (nil on a
// primary or standalone database) — for barrier waits and status in tests
// and tools.
func (db *Database) Follower() *replication.Follower {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	return db.repl.follower
}

// Promote converts a replica into a standalone read-write database: the
// stream stops, the transaction manager adopts fresh transaction ids past
// everything replayed, writes are accepted, and (when durable) a checkpoint
// makes the promoted state the recovery baseline. Also invoked by
// SELECT promote_replica() on the replica.
func (db *Database) Promote() error {
	db.repl.mu.Lock()
	f := db.repl.follower
	db.repl.mu.Unlock()
	if f == nil {
		return errors.New("hyrise: not a replica")
	}
	f.Promote()
	db.engine.SetReadOnly(false)
	if db.engine.Durable() {
		if err := db.engine.Checkpoint(); err != nil {
			return fmt.Errorf("hyrise: checkpoint after promote: %w", err)
		}
	}
	return nil
}

// Repoint re-targets a replica at a new primary address — the failover
// counterpart of Promote for the surviving followers. The replica
// re-bootstraps from the new primary's snapshot, since LSN positions from
// the old timeline need not be meaningful on the new one.
func (db *Database) Repoint(primaryAddr string) error {
	db.repl.mu.Lock()
	f := db.repl.follower
	db.repl.mu.Unlock()
	if f == nil {
		return errors.New("hyrise: not a replica")
	}
	f.Repoint(func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", primaryAddr, replicaDialTimeout)
	})
	db.repl.mu.Lock()
	db.repl.primaryPeer = primaryAddr
	db.repl.mu.Unlock()
	return nil
}

// RepointTo re-targets a replica at an in-process primary (typically a
// just-promoted sibling replica), and registers it with the new primary for
// read routing.
func (db *Database) RepointTo(newPrimary *Database) error {
	db.repl.mu.Lock()
	f := db.repl.follower
	db.repl.mu.Unlock()
	if f == nil {
		return errors.New("hyrise: not a replica")
	}
	p, err := newPrimary.primaryShipper()
	if err != nil {
		return err
	}
	f.Repoint(func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go p.ServeConn(c2, "in-process") //nolint:errcheck
		return c1, nil
	})
	db.repl.mu.Lock()
	db.repl.primaryPeer = "in-process"
	db.repl.mu.Unlock()
	newPrimary.repl.mu.Lock()
	newPrimary.repl.replicas = append(newPrimary.repl.replicas, db)
	newPrimary.repl.mu.Unlock()
	return nil
}

// CloseReplication stops the database's replication role: the follower
// stream or the shipper with all its sessions. Close calls this.
func (db *Database) CloseReplication() {
	db.repl.mu.Lock()
	f, p := db.repl.follower, db.repl.primary
	db.repl.mu.Unlock()
	if f != nil {
		f.Stop()
	}
	if p != nil {
		p.Close()
	}
}

// AcquireRead implements server.ReadRouter over the in-process replicas:
// capture the primary's current commit barrier, pick the next streaming
// replica round-robin (preferring lower lag on ties), and wait for it to
// apply past the barrier. Returns (nil, false) — run locally — when no
// replica is attached or none catches up within the wait budget.
func (db *Database) AcquireRead(ctx context.Context) (*pipeline.Engine, bool) {
	db.repl.mu.Lock()
	replicas := make([]*Database, len(db.repl.replicas))
	copy(replicas, db.repl.replicas)
	start := db.repl.rr
	db.repl.rr++
	db.repl.mu.Unlock()
	if len(replicas) == 0 {
		return nil, false
	}
	barrier := db.engine.TransactionManager().LastCommitID()
	wait, cancel := context.WithTimeout(ctx, readRouteWait)
	defer cancel()
	for i := 0; i < len(replicas); i++ {
		r := replicas[(start+i)%len(replicas)]
		f := r.Follower()
		if f == nil || f.Status().State != replication.StateStreaming {
			continue
		}
		if err := f.WaitForCommit(wait, barrier); err != nil {
			continue // lagging past the budget (or ctx died): try the next one
		}
		return r.engine, true
	}
	return nil, false
}

// ReplicationRow is one row of the meta_replication table. A primary reports
// one row per connected follower; a follower reports one row about itself; a
// database that is neither reports one standalone row.
type ReplicationRow struct {
	Role       string // "standalone" | "primary" | "replica"
	Peer       string // transport endpoint of the other side
	State      string
	AppliedLSN int64 // follower apply position (acked position on a primary)
	EndLSN     int64 // primary log end as last known
	AppliedCID int64
	PrimaryCID int64
	LagBytes   int64
	LagNS      int64
}

// replicationColumns are meta_replication's columns, one per ReplicationRow
// field.
var replicationColumns = []storage.ColumnDefinition{
	{Name: "role", Type: types.TypeString},
	{Name: "peer", Type: types.TypeString},
	{Name: "state", Type: types.TypeString},
	{Name: "applied_lsn", Type: types.TypeInt64},
	{Name: "end_lsn", Type: types.TypeInt64},
	{Name: "applied_cid", Type: types.TypeInt64},
	{Name: "primary_cid", Type: types.TypeInt64},
	{Name: "lag_bytes", Type: types.TypeInt64},
	{Name: "lag_ns", Type: types.TypeInt64},
}

// metaReplication snapshots the replication topology as a relational table:
// `SELECT * FROM meta_replication` (console: \replication).
func (db *Database) metaReplication() (*storage.Table, error) {
	var rows [][]types.Value
	for _, r := range db.ReplicationStatus() {
		rows = append(rows, []types.Value{
			types.Str(r.Role), types.Str(r.Peer), types.Str(r.State),
			types.Int(r.AppliedLSN), types.Int(r.EndLSN),
			types.Int(r.AppliedCID), types.Int(r.PrimaryCID),
			types.Int(r.LagBytes), types.Int(r.LagNS),
		})
	}
	return storage.NewTableFromRows("meta_replication", replicationColumns, rows)
}

// ReplicationStatus reports the database's replication topology — the
// meta_replication table in Go form.
func (db *Database) ReplicationStatus() []ReplicationRow {
	db.repl.mu.Lock()
	p, f, peer := db.repl.primary, db.repl.follower, db.repl.primaryPeer
	db.repl.mu.Unlock()
	var rows []ReplicationRow
	if f != nil {
		st := f.Status()
		rows = append(rows, ReplicationRow{
			Role:       "replica",
			Peer:       peer,
			State:      string(st.State),
			AppliedLSN: st.AppliedLSN,
			EndLSN:     st.PrimaryEnd,
			AppliedCID: int64(st.AppliedCID),
			PrimaryCID: int64(st.PrimaryCID),
			LagBytes:   st.LagBytes,
			LagNS:      st.LagNS,
		})
	}
	if p != nil {
		end := p.EndLSN()
		cid := int64(db.engine.TransactionManager().LastCommitID())
		followers := p.Followers()
		for _, fi := range followers {
			lag := end - fi.AckedLSN
			if lag < 0 {
				lag = 0
			}
			rows = append(rows, ReplicationRow{
				Role:       "primary",
				Peer:       fi.Peer,
				State:      fi.State,
				AppliedLSN: fi.AckedLSN,
				EndLSN:     end,
				AppliedCID: int64(fi.AckedCID),
				PrimaryCID: cid,
				LagBytes:   lag,
			})
		}
		if len(followers) == 0 {
			rows = append(rows, ReplicationRow{
				Role:       "primary",
				State:      "no-followers",
				EndLSN:     end,
				PrimaryCID: cid,
			})
		}
	}
	if len(rows) == 0 {
		rows = append(rows, ReplicationRow{Role: "standalone", State: "none"})
	}
	return rows
}
