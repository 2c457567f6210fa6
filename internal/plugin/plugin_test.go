package plugin

import (
	"fmt"
	"strings"
	"testing"

	"hyrise/internal/encoding"
	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

type testPlugin struct {
	started, stopped bool
	failStart        bool
}

func (p *testPlugin) Name() string        { return "test" }
func (p *testPlugin) Description() string { return "test plugin" }
func (p *testPlugin) Start(*pipeline.Engine) error {
	if p.failStart {
		return fmt.Errorf("boom")
	}
	p.started = true
	return nil
}
func (p *testPlugin) Stop() error { p.stopped = true; return nil }

func newEngine(t *testing.T) *pipeline.Engine {
	t.Helper()
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	return e
}

func TestManagerLoadUnload(t *testing.T) {
	var last *testPlugin
	Register("test", func() Plugin {
		last = &testPlugin{}
		return last
	})
	m := NewManager(newEngine(t))

	if err := m.Load("test"); err != nil {
		t.Fatal(err)
	}
	if !last.started {
		t.Error("Start not called")
	}
	if got := m.Loaded(); len(got) != 1 || got[0] != "test" {
		t.Errorf("Loaded = %v", got)
	}
	if _, ok := m.Get("test"); !ok {
		t.Error("Get failed")
	}
	// Singleton: double load fails.
	if err := m.Load("test"); err == nil {
		t.Error("double load should fail")
	}
	if err := m.Unload("test"); err != nil {
		t.Fatal(err)
	}
	if !last.stopped {
		t.Error("Stop not called")
	}
	if err := m.Unload("test"); err == nil {
		t.Error("double unload should fail")
	}
	// Unknown plugin.
	if err := m.Load("bogus"); err == nil {
		t.Error("unknown plugin should fail")
	}
	// Failed start does not register.
	Register("failing", func() Plugin { return &testPlugin{failStart: true} })
	if err := m.Load("failing"); err == nil {
		t.Error("failing Start should propagate")
	}
	if len(m.Loaded()) != 0 {
		t.Error("failed plugin must not stay loaded")
	}
}

func TestAvailableContainsSelfDriving(t *testing.T) {
	names := Available()
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "index_selection") || !strings.Contains(joined, "encoding_advisor") {
		t.Errorf("Available = %v", names)
	}
}

func TestUnloadAll(t *testing.T) {
	Register("a1", func() Plugin { return &testPlugin{} })
	Register("a2", func() Plugin { return &testPlugin{} })
	m := NewManager(newEngine(t))
	_ = m.Load("a1")
	_ = m.Load("a2")
	m.UnloadAll()
	if len(m.Loaded()) != 0 {
		t.Error("UnloadAll left plugins behind")
	}
}

// selfDrivingEngine loads events the way every loader does: registered
// first, so each chunk seals by the size model as it fills.
func selfDrivingEngine(t *testing.T) *pipeline.Engine {
	t.Helper()
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	table := storage.NewTable("events", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},       // unique -> index candidate
		{Name: "kind", Type: types.TypeInt64},     // 4 distinct, 1000 apart -> dictionary
		{Name: "constant", Type: types.TypeInt64}, // 1 distinct -> run length
		{Name: "seq", Type: types.TypeInt64},      // dense unique ints -> FOR
		{Name: "payload", Type: types.TypeString}, // unique 47-byte strings -> dictionary
	}, 500, false)
	if err := e.StorageManager().AddTable(table); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		_, _ = table.AppendRow([]types.Value{
			types.Int(int64(i * 7)),
			types.Int(int64(i%4) * 1000), // 2-bit codes; a frame's offsets need 12 bits
			types.Int(42),
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("payload-%06d-%032d", i, i*7919)),
		})
	}
	table.SealTail()
	return e
}

func TestIndexSelectionPlugin(t *testing.T) {
	e := selfDrivingEngine(t)
	// Chunk 0 holds id dictionary-encoded, the other chunks as loaded.
	table, _ := e.StorageManager().GetTable("events")
	idCol, _ := table.ColumnID("id")
	dict, _ := encoding.Seal(table.GetChunk(0).GetSegment(idCol), false, &encoding.Spec{Encoding: encoding.Dictionary})
	table.GetChunk(0).ReplaceSegment(idCol, dict)
	m := NewManager(e)
	if err := m.Load("index_selection"); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Get("index_selection")
	created := p.(*IndexSelectionPlugin).Created()
	if len(created) == 0 {
		t.Fatal("no indexes created")
	}
	// The unique id column must be among them; the 4-distinct kind column
	// must not.
	joined := strings.Join(created, ",")
	if !strings.Contains(joined, "events.id") {
		t.Errorf("unique column not indexed: %v", created)
	}
	if strings.Contains(joined, "events.kind") {
		t.Errorf("low-cardinality column indexed: %v", created)
	}
	// Indexes are physically attached, over the dictionary and over the values
	// alike, and answer a point lookup.
	for ci, c := range table.Chunks() {
		idx := c.GetIndex(idCol)
		if idx == nil {
			t.Fatalf("chunk %d: no index on id", ci)
		}
		v := c.GetSegment(idCol).ValueAt(0)
		if got := idx.Range(&v, &v, false, false); len(got) != 1 || got[0] != 0 {
			t.Errorf("chunk %d: lookup of %v = %v, want offset 0", ci, v, got)
		}
	}
}

// TestEncodingAdvisorPlugin: Advise reports the size model's choice per
// column. The segments are encoded before the plugin loads — the catalog's
// Sealer encoded each chunk as it filled — so what this test used to credit to
// Advise's own seal pass it now reads off the load.
func TestEncodingAdvisorPlugin(t *testing.T) {
	e := selfDrivingEngine(t)
	m := NewManager(e)
	if err := m.Load("encoding_advisor"); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Get("encoding_advisor")
	applied := p.(*EncodingAdvisorPlugin).Applied()
	if !strings.Contains(applied["events.kind"], "Dictionary") {
		t.Errorf("kind should be dictionary, got %q", applied["events.kind"])
	}
	if applied["events.constant"] != "RunLength" {
		t.Errorf("constant should be run-length, got %q", applied["events.constant"])
	}
	if !strings.Contains(applied["events.seq"], "FrameOfReference") {
		t.Errorf("seq should be FOR, got %q", applied["events.seq"])
	}
	// Unique strings: an end and a 2-byte code per row are fewer bytes than
	// the plain array's 16-byte header, and any saving is taken.
	if !strings.Contains(applied["events.payload"], "Dictionary") {
		t.Errorf("payload should be dictionary, got %q", applied["events.payload"])
	}
	// Segments were physically replaced, by the load.
	table, _ := e.StorageManager().GetTable("events")
	kindCol, _ := table.ColumnID("kind")
	if _, ok := table.GetChunk(0).GetSegment(kindCol).(*encoding.DictionarySegment[int64]); !ok {
		t.Errorf("kind segment is %T", table.GetChunk(0).GetSegment(kindCol))
	}
	// Queries still work after self-driving encoding.
	s := e.NewSession()
	res, err := s.ExecuteOne("SELECT count(*) FROM events WHERE kind = 2000")
	if err != nil {
		t.Fatal(err)
	}
	if rows := pipeline.RowStrings(res.Table); rows[0][0] != "500" {
		t.Errorf("count = %v", rows)
	}
}

// TestStatsAdvisorsSkipValuelessColumns: an all-NULL column has no domain (its
// statistics used to say Min=+Inf, Max=-Inf, so Max-Min < anything and it
// counted as a dense integer domain) and an empty table has no rows. By the
// size model the all-NULL segment is one run of 13 bytes; the workload pass,
// which reasons about values, leaves it alone, and nobody advises the empty
// table.
func TestStatsAdvisorsSkipValuelessColumns(t *testing.T) {
	e := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	t.Cleanup(e.Close)
	table := storage.NewTable("sparse", []storage.ColumnDefinition{
		{Name: "seq", Type: types.TypeInt64},
		{Name: "gone", Type: types.TypeInt64, Nullable: true},
	}, 500, false)
	_ = e.StorageManager().AddTable(table)
	for i := 0; i < 2000; i++ {
		_, _ = table.AppendRow([]types.Value{types.Int(int64(i)), types.NullValue})
	}
	table.SealTail()
	_ = e.StorageManager().AddTable(storage.NewTable("nothing", []storage.ColumnDefinition{{Name: "x", Type: types.TypeInt64}}, 500, false))

	if cs := e.Statistics().Get(table).Column(1); !cs.Empty() || cs.Min != 0 || cs.Max != 0 {
		t.Fatalf("all-NULL column statistics: %+v", cs)
	}
	idx := &IndexSelectionPlugin{}
	if err := idx.Start(e); err != nil {
		t.Fatal(err)
	}
	if joined := strings.Join(idx.Created(), ","); strings.Contains(joined, "gone") || strings.Contains(joined, "nothing") {
		t.Errorf("indexed a column without values: %v", idx.Created())
	}
	enc := &EncodingAdvisorPlugin{}
	if err := enc.Start(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // range-heavy: the dense-domain branch of the workload pass
		e.ScanStats().Column("sparse", "gone").Record(observe.ScanPathUnencoded, false, 2000, 0)
	}
	if err := enc.AdviseFromWorkload(); err != nil {
		t.Fatal(err)
	}
	applied := enc.Applied()
	if !strings.Contains(applied["sparse.seq"], "FrameOfReference") {
		t.Errorf("seq should be FOR, got %q", applied["sparse.seq"])
	}
	if spec := applied["sparse.gone"]; spec != "RunLength" {
		t.Errorf("all-NULL column was advised %q, want one run", spec)
	}
	if seg, ok := table.GetChunk(0).GetSegment(1).(*encoding.RunLengthSegment[int64]); !ok || seg.MemoryUsage() != 13 {
		t.Errorf("all-NULL segment is %T, want one NULL run of 13 bytes", table.GetChunk(0).GetSegment(1))
	}
	if _, ok := applied["nothing.x"]; ok {
		t.Error("empty table was advised")
	}
}
