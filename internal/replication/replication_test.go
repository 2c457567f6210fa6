package replication

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/persistence"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

func testDefs() []storage.ColumnDefinition {
	return []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "name", Type: types.TypeString, Nullable: true},
	}
}

// newCatalog is a catalog whose chunks seal like an engine's.
func newCatalog() *storage.StorageManager {
	sm := storage.NewStorageManager()
	sm.SetSealer(func(c *storage.Chunk) { filter.Seal(c, nil) })
	return sm
}

// primaryStack is a minimal durable "engine": catalog + transactions + WAL.
type primaryStack struct {
	sm *storage.StorageManager
	tm *concurrency.TransactionManager
	pm *persistence.Manager
	p  *Primary
}

func newPrimaryStack(t testing.TB) *primaryStack {
	t.Helper()
	sm := newCatalog()
	tm := concurrency.NewTransactionManager()
	pm, err := persistence.Open(sm, tm, persistence.Options{Dir: t.TempDir(), Mode: persistence.SyncCommit})
	if err != nil {
		t.Fatalf("persistence.Open: %v", err)
	}
	s := &primaryStack{sm: sm, tm: tm, pm: pm, p: NewPrimary(pm, tm, nil)}
	t.Cleanup(func() { s.p.Close(); _ = pm.Close() })
	return s
}

// pipeDial connects a follower to the primary through an in-memory pipe —
// the single-process topology. The bytes on the pipe are identical to what
// the TCP transport carries.
func (s *primaryStack) pipeDial() func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go func() { _ = s.p.ServeConn(c2, "pipe") }()
		return c1, nil
	}
}

func (s *primaryStack) createTable(t testing.TB, name string) *storage.Table {
	t.Helper()
	table := storage.NewTable(name, testDefs(), 4, true)
	if err := s.sm.AddTable(table); err != nil {
		t.Fatal(err)
	}
	if err := s.pm.LogCreateTable(table); err != nil {
		t.Fatal(err)
	}
	return table
}

func (s *primaryStack) insert(t testing.TB, table *storage.Table, id int64, name string) {
	t.Helper()
	tx := s.tm.New()
	vals := []types.Value{types.Int(id), types.Str(name)}
	rid, err := table.AppendRow(vals)
	if err != nil {
		t.Fatal(err)
	}
	tx.RegisterInsert(table.GetChunk(rid.Chunk), rid.Offset)
	tx.LogInsert(table.Name(), rid, vals)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// visible returns the rows of a table visible at the manager's last commit.
func visible(tm *concurrency.TransactionManager, table *storage.Table) [][]types.Value {
	snapshot := tm.LastCommitID()
	var out [][]types.Value
	for _, c := range table.Chunks() {
		mvcc := c.MvccData()
		for o := 0; o < c.Size(); o++ {
			off := types.ChunkOffset(o)
			if mvcc != nil && !concurrency.Visible(mvcc, off, 0, snapshot) {
				continue
			}
			row := make([]types.Value, c.ColumnCount())
			for col := range row {
				row[col] = c.GetSegment(types.ColumnID(col)).ValueAt(off)
			}
			out = append(out, row)
		}
	}
	return out
}

func mvccBytes(table *storage.Table) (n int64) {
	for _, c := range table.Chunks() {
		n += c.MvccData().MemoryUsage()
	}
	return n
}

// sameSeals reports that the follower has sealed exactly the chunks the
// primary has, into the same encodings and with the same filters. These tests
// commit one transaction at a time, so at the commit barrier no chunk of the
// follower waits on a placeholder: a full chunk is sealed on both sides — by
// the write that filled it, or restored from the image as its seal left it —
// and the tail on neither.
func sameSeals(follower, primary *storage.Table) bool {
	fc, pc := follower.Chunks(), primary.Chunks()
	if len(fc) != len(pc) {
		return false
	}
	for i := range fc {
		if sealOf(fc[i]) != sealOf(pc[i]) {
			return false
		}
	}
	return true
}

// sealOf describes what sealing made of a chunk: immutable or not, and per
// column the encoding, the value compression and the filters.
func sealOf(c *storage.Chunk) string {
	s := fmt.Sprint(c.IsImmutable())
	for col := 0; col < c.ColumnCount(); col++ {
		id := types.ColumnID(col)
		spec, _ := encoding.SpecOf(c.GetSegment(id))
		s += " | " + spec.String() + " " + encoding.ValueCompression(c.GetSegment(id))
		for _, f := range c.Filters(id) {
			s += fmt.Sprintf(" %T", f)
		}
	}
	return s
}

func sameRows(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if types.Order(a[i][j], b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// newFollower creates a blank follower engine attached through dial.
func newFollower(dial func() (io.ReadWriteCloser, error)) (*Follower, *storage.StorageManager, *concurrency.TransactionManager) {
	sm := newCatalog()
	tm := concurrency.NewTransactionManager()
	f := NewFollower(sm, tm, nil, dial)
	return f, sm, tm
}

// waitCaughtUp blocks until the follower's barrier reaches the primary's
// current commit.
func waitCaughtUp(t *testing.T, s *primaryStack, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitForCommit(ctx, s.tm.LastCommitID()); err != nil {
		t.Fatalf("follower never reached commit %d (at LSN %d): %v", s.tm.LastCommitID(), f.AppliedLSN(), err)
	}
}

func TestBootstrapAndTail(t *testing.T) {
	s := newPrimaryStack(t)
	// A reader from before the first write holds the low-water mark, so the
	// primary keeps every begin array its commits made, as replay does.
	pin := s.tm.New()
	defer pin.Rollback()
	table := s.createTable(t, "t")
	// Names long enough that a full chunk's dictionary is FSST-packed: the
	// image and the replayed tail must pack as the primary did.
	long := func(name string, i int) string { return fmt.Sprintf("%s%d", strings.Repeat(name+" ", 80), i) }
	for i := 0; i < 20; i++ {
		s.insert(t, table, int64(i), long("before-attach", i))
	}
	// Checkpoint so part of the history is only in the snapshot: the
	// follower must combine image + tail.
	if err := s.pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		s.insert(t, table, int64(i), long("after-checkpoint", i))
	}

	f, fsm, ftm := newFollower(s.pipeDial())
	f.Start()
	defer f.Stop()

	// Writes racing the attach must also arrive.
	for i := 30; i < 40; i++ {
		s.insert(t, table, int64(i), long("after-attach", i))
	}
	waitCaughtUp(t, s, f)

	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatalf("follower missing table: %v", err)
	}
	if got, want := visible(ftm, ftable), visible(s.tm, table); !sameRows(got, want) {
		t.Fatalf("follower rows diverge: got %d rows, want %d", len(got), len(want))
	}
	if !sameSeals(ftable, table) {
		t.Errorf("follower and primary have sealed different chunks of %d", table.ChunkCount())
	}
	if seal := sealOf(table.GetChunk(0)); !strings.Contains(seal, "FSST") {
		t.Errorf("the primary's first chunk is %q, want its names FSST-packed", seal)
	}
	// The image stamps whole blocks and the tail goes through the stores the
	// primary's commits went through: never more MVCC cells than there.
	if got, limit := mvccBytes(ftable), mvccBytes(table); got > limit {
		t.Errorf("follower holds %d bytes of MVCC columns, the primary %d", got, limit)
	}
	if st := f.Status(); st.State != StateStreaming || st.Bootstraps != 1 {
		t.Fatalf("status = %+v, want streaming after 1 bootstrap", st)
	}
}

// TestDiffFollowerBootstrapsFromCheckpoint: a bootstrapping follower is sent
// the primary's checkpoint file. Two followers bootstrap at once while the
// primary checkpoints in a loop; each starts applying at the cut of a
// snapshot the primary wrote, and both converge to the primary's rows and
// seals — those of a bulk load that bypassed the log included, since a
// checkpoint encodes memory.
func TestDiffFollowerBootstrapsFromCheckpoint(t *testing.T) {
	s := newPrimaryStack(t)
	bulk := storage.NewTable("bulk", testDefs(), 4, true)
	if err := s.sm.AddTable(bulk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := bulk.AppendRow([]types.Value{types.Int(int64(i)), types.Str("bulk")}); err != nil {
			t.Fatal(err)
		}
	}
	concurrency.MarkTableLoaded(bulk)
	if n := len(visible(s.tm, bulk)); n != 30 {
		t.Fatalf("the bulk load shows %d rows, want 30", n)
	}
	table := s.createTable(t, "t")
	for i := 0; i < 20; i++ {
		s.insert(t, table, int64(i), "before-bootstrap")
	}

	stop := make(chan struct{})
	var loop sync.WaitGroup
	loop.Add(1)
	go func() {
		defer loop.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := s.pm.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); loop.Wait() }()

	var followers [2]*Follower
	var catalogs [2]*storage.StorageManager
	var tms [2]*concurrency.TransactionManager
	for i := range followers {
		followers[i], catalogs[i], tms[i] = newFollower(s.pipeDial())
		followers[i].Start()
		defer followers[i].Stop()
	}
	// No commit lands until both have bootstrapped, so every snapshot the
	// primary writes meanwhile, the file on disk included, has one cut.
	for _, f := range followers {
		waitCaughtUp(t, s, f)
	}
	img, err := os.ReadFile(filepath.Join(s.pm.Dir(), persistence.SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	cut, _, err := persistence.DecodeSnapshot(img, storage.NewStorageManager())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		if st := f.Status(); st.Bootstraps != 1 || st.AppliedLSN != cut {
			t.Fatalf("follower %d: %+v, want one bootstrap applied up to the snapshot cut %d", i, st, cut)
		}
	}

	for i := 20; i < 40; i++ {
		s.insert(t, table, int64(i), "after-bootstrap")
	}
	for i, f := range followers {
		waitCaughtUp(t, s, f)
		for _, primary := range []*storage.Table{bulk, table} {
			got, err := catalogs[i].GetTable(primary.Name())
			if err != nil {
				t.Fatalf("follower %d: %v", i, err)
			}
			if g, w := visible(tms[i], got), visible(s.tm, primary); !sameRows(g, w) {
				t.Fatalf("follower %d: %s has %d rows, the primary %d", i, primary.Name(), len(g), len(w))
			}
			if !sameSeals(got, primary) {
				t.Errorf("follower %d and the primary have sealed different chunks of %s", i, primary.Name())
			}
		}
	}
}

// limitedConn kills the transport after a byte budget is read — the fault
// injector: sessions die at arbitrary WAL/snapshot offsets.
type limitedConn struct {
	io.ReadWriteCloser
	mu        sync.Mutex
	remaining int
}

func (c *limitedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	rem := c.remaining
	c.mu.Unlock()
	if rem <= 0 {
		c.Close()
		return 0, fmt.Errorf("injected transport failure")
	}
	if len(p) > rem {
		p = p[:rem]
	}
	n, err := c.ReadWriteCloser.Read(p)
	c.mu.Lock()
	c.remaining -= n
	c.mu.Unlock()
	return n, err
}

// TestFlakyTransportConverges reconnects through a transport that dies after
// ever-larger byte budgets; every session is killed at a different offset —
// mid-snapshot, mid-batch, mid-frame — and replay must still converge to the
// primary's exact state.
func TestFlakyTransportConverges(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	for i := 0; i < 50; i++ {
		s.insert(t, table, int64(i), "payload-padding-to-make-frames-wide")
	}

	var mu sync.Mutex
	budget := 64 // grows per attempt; first sessions die inside the snapshot
	base := s.pipeDial()
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := base()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		b := budget
		budget *= 2
		mu.Unlock()
		return &limitedConn{ReadWriteCloser: conn, remaining: b}, nil
	}

	f, fsm, ftm := newFollower(dial)
	f.Start()
	defer f.Stop()
	for i := 50; i < 80; i++ {
		s.insert(t, table, int64(i), "written-while-flaky")
	}
	waitCaughtUp(t, s, f)

	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := visible(ftm, ftable), visible(s.tm, table); !sameRows(got, want) {
		t.Fatalf("flaky follower diverged: %d rows vs %d", len(got), len(want))
	}
	if !sameSeals(ftable, table) {
		t.Errorf("follower and primary have sealed different chunks of %d", table.ChunkCount())
	}
}

// TestCrashedFollowerCatchesUpViaSnapshot kills followers outright at
// arbitrary replay offsets (fresh engine each time — a crash loses all
// in-memory state), checkpoints the primary so the WAL the dead follower was
// reading gets truncated, and requires the replacement to converge through
// the snapshot path.
func TestCrashedFollowerCatchesUpViaSnapshot(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	row := int64(0)
	for ; row < 30; row++ {
		s.insert(t, table, row, "initial")
	}

	for attempt, budget := range []int{128, 700, 3000} {
		// A follower that dies mid-replay at this byte offset.
		doomed, _, _ := newFollower(func() (io.ReadWriteCloser, error) {
			conn, err := s.pipeDial()()
			if err != nil {
				return nil, err
			}
			return &limitedConn{ReadWriteCloser: conn, remaining: budget}, nil
		})
		doomed.Start()
		time.Sleep(20 * time.Millisecond) // let it get partway through replay
		doomed.Stop()                     // the crash: all state discarded

		// The primary moves on: more commits, then a checkpoint that
		// truncates the log the dead follower was reading.
		for i := 0; i < 10; i++ {
			s.insert(t, table, row, fmt.Sprintf("after-crash-%d", attempt))
			row++
		}
		if err := s.pm.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// The replacement follower starts from nothing, far behind the trimmed
	// log: it must bootstrap from a snapshot and tail to convergence.
	f, fsm, ftm := newFollower(s.pipeDial())
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, s, f)

	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := visible(ftm, ftable), visible(s.tm, table); !sameRows(got, want) {
		t.Fatalf("replacement follower diverged: %d rows vs %d", len(got), len(want))
	}
	if !sameSeals(ftable, table) {
		t.Errorf("follower and primary have sealed different chunks of %d", table.ChunkCount())
	}
	if st := f.Status(); st.Bootstraps != 1 {
		t.Fatalf("expected snapshot bootstrap, got %+v", st)
	}
}

// TestStaleFollowerForcedToBootstrap: a follower disconnects, the primary
// checkpoints (truncating the log past the follower's position — its pin
// died with the session), and the reconnecting follower must detect the gap
// and re-bootstrap rather than resume.
func TestStaleFollowerForcedToBootstrap(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	for i := 0; i < 10; i++ {
		s.insert(t, table, int64(i), "a")
	}

	// gate blocks reconnects so we control when the follower comes back.
	gate := make(chan struct{})
	var firstConn io.ReadWriteCloser
	var mu sync.Mutex
	attempts := 0
	base := s.pipeDial()
	dial := func() (io.ReadWriteCloser, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n > 1 {
			<-gate
		}
		conn, err := base()
		if n == 1 && err == nil {
			mu.Lock()
			firstConn = conn
			mu.Unlock()
		}
		return conn, err
	}

	f, fsm, ftm := newFollower(dial)
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, s, f)

	// Sever the session, advance and truncate the log while it is away. The
	// primary drops the session's retention pin when it notices the
	// disconnect; wait for that before checkpointing.
	mu.Lock()
	firstConn.Close()
	mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); len(s.p.Followers()) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("primary never noticed the disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 10; i < 20; i++ {
		s.insert(t, table, int64(i), "b")
	}
	if err := s.pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.pm.WALStartLSN() <= f.AppliedLSN() {
		t.Fatalf("setup failed: log start %d not past follower %d", s.pm.WALStartLSN(), f.AppliedLSN())
	}
	close(gate)
	waitCaughtUp(t, s, f)

	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := visible(ftm, ftable), visible(s.tm, table); !sameRows(got, want) {
		t.Fatalf("re-bootstrapped follower diverged")
	}
	if !sameSeals(ftable, table) {
		t.Errorf("follower and primary have sealed different chunks of %d", table.ChunkCount())
	}
	if st := f.Status(); st.Bootstraps != 2 {
		t.Fatalf("expected forced re-bootstrap (2 bootstraps), got %+v", st)
	}
}

// TestPromote turns a caught-up follower into a standalone writable node.
func TestPromote(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	for i := 0; i < 5; i++ {
		s.insert(t, table, int64(i), "from-primary")
	}

	f, fsm, ftm := newFollower(s.pipeDial())
	f.Start()
	waitCaughtUp(t, s, f)
	f.Promote()
	if st := f.Status(); st.State != StatePromoted {
		t.Fatalf("state = %v, want promoted", st.State)
	}

	// Writes committed on the ex-follower must get fresh transaction ids and
	// become visible locally.
	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	before := len(visible(ftm, ftable))
	tx := ftm.New()
	vals := []types.Value{types.Int(100), types.Str("post-promote")}
	rid, err := ftable.AppendRow(vals)
	if err != nil {
		t.Fatal(err)
	}
	tx.RegisterInsert(ftable.GetChunk(rid.Chunk), rid.Offset)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit on promoted node: %v", err)
	}
	if got := len(visible(ftm, ftable)); got != before+1 {
		t.Fatalf("promoted write not visible: %d rows, want %d", got, before+1)
	}
	f.Stop()
}

// TestReadYourWritesBarrier checks the consistent-read protocol: capture the
// primary's commit id, wait on the follower, read — the follower must serve
// at least that barrier.
func TestReadYourWritesBarrier(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	f, fsm, ftm := newFollower(s.pipeDial())
	f.Start()
	defer f.Stop()

	for i := 0; i < 25; i++ {
		s.insert(t, table, int64(i), "w")
		barrier := s.tm.LastCommitID()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := f.WaitForCommit(ctx, barrier)
		cancel()
		if err != nil {
			t.Fatalf("barrier wait %d: %v", barrier, err)
		}
		ftable, err := fsm.GetTable("t")
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got := len(visible(ftm, ftable)); got < i+1 {
			t.Fatalf("read-your-writes violated: %d rows visible after commit %d", got, i+1)
		}
	}
}

// TestTCPTransport runs the same protocol over a real socket.
func TestTCPTransport(t *testing.T) {
	s := newPrimaryStack(t)
	table := s.createTable(t, "t")
	for i := 0; i < 10; i++ {
		s.insert(t, table, int64(i), "tcp")
	}
	addr, err := s.p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	f, fsm, ftm := newFollower(func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	})
	f.Start()
	defer f.Stop()
	waitCaughtUp(t, s, f)
	ftable, err := fsm.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := visible(ftm, ftable), visible(s.tm, table); !sameRows(got, want) {
		t.Fatalf("TCP follower diverged")
	}
	if !sameSeals(ftable, table) {
		t.Errorf("follower and primary have sealed different chunks of %d", table.ChunkCount())
	}
	if got := len(s.p.Followers()); got != 1 {
		t.Fatalf("Followers() = %d, want 1", got)
	}
}
