package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/types"
)

// Sealer finishes a chunk of a registered table at the moment it has become
// immutable: it may replace segments by encoded ones and set its zones' bins. The
// encodings live above this package, so the engine supplies the function
// (StorageManager.SetSealer). It runs in the goroutine whose write completed
// the chunk or, for a bulk load (Loader), before the chunk is published, on
// a goroutine of its own beside the seals of other chunks: it must be safe
// for concurrent use on different chunks.
type Sealer func(c *Chunk)

// MetaTableProvider materializes a virtual system table on demand. Each
// call produces a fresh snapshot, so successive queries over a meta-table
// observe advancing telemetry (real Hyrise exposes its internals the same
// way, as meta_* tables).
type MetaTableProvider func() (*Table, error)

// StorageManager is the central catalog of named tables and views
// (paper Figure 1: "Storage Manager"). It is safe for concurrent use.
type StorageManager struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]string // view name -> SQL text (embedded at planning time)
	meta   map[string]MetaTableProvider
	sealer Sealer

	chunksSealed, sealNS atomic.Int64

	shared map[any]any // Shared's slots

	// epoch counts catalog mutations (table/view add/drop). Cached plans
	// embed table pointers; consumers record the epoch at build time and
	// rebuild when it moved, so no plan ever executes against a dropped or
	// re-created table.
	epoch atomic.Int64
}

// NewStorageManager creates an empty catalog.
func NewStorageManager() *StorageManager {
	return &StorageManager{
		tables: make(map[string]*Table),
		views:  make(map[string]string),
		meta:   make(map[string]MetaTableProvider),
	}
}

// SetSealer installs the function that finishes the chunks of registered
// tables as they fill up.
func (sm *StorageManager) SetSealer(f Sealer) {
	sm.mu.Lock()
	sm.sealer = f
	sm.mu.Unlock()
}

// seal runs the Sealer on a chunk that has just become immutable and accounts
// for it (Table.seal).
func (sm *StorageManager) seal(c *Chunk) {
	sm.mu.RLock()
	f := sm.sealer
	sm.mu.RUnlock()
	if f == nil {
		return
	}
	start := time.Now()
	f(c)
	ns := time.Since(start).Nanoseconds()
	c.sealNS.Store(ns)
	sm.chunksSealed.Add(1)
	sm.sealNS.Add(ns)
}

// Shared returns the value the catalog keeps under key, made by newValue on
// first use: what the components over one catalog share, whose packages this
// one cannot name (the engines' statistics cache).
func (sm *StorageManager) Shared(key any, newValue func() any) any {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	v, ok := sm.shared[key]
	if !ok {
		if sm.shared == nil {
			sm.shared = map[any]any{}
		}
		v = newValue()
		sm.shared[key] = v
	}
	return v
}

// SealStats returns how many chunks the Sealer has finished and the
// nanoseconds it spent on them.
func (sm *StorageManager) SealStats() (chunks, ns int64) {
	return sm.chunksSealed.Load(), sm.sealNS.Load()
}

// ReleasePlaceholders ends a log replay on every table (crash recovery done, a
// follower promoted): the placeholders still standing belong to
// transactions that never committed, so the full chunks that waited on them
// are sealed.
func (sm *StorageManager) ReleasePlaceholders() {
	sm.mu.RLock()
	tables := make([]*Table, 0, len(sm.tables))
	for _, t := range sm.tables {
		tables = append(tables, t)
	}
	sm.mu.RUnlock()
	for _, t := range tables {
		t.releasePlaceholders()
	}
}

// AddTable registers a table under its name. Re-registering a name fails,
// as does shadowing a meta-table. From here on the chunks of the table that
// fill up are sealed by the catalog's Sealer; the chunks it arrives with stay
// as their loader left them.
func (sm *StorageManager) AddTable(t *Table) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	key := strings.ToLower(t.Name())
	if key == "" {
		return fmt.Errorf("storage: cannot register unnamed table")
	}
	if _, ok := sm.tables[key]; ok {
		return fmt.Errorf("storage: table %q already exists", t.Name())
	}
	if _, ok := sm.meta[key]; ok {
		return fmt.Errorf("storage: %q is a reserved meta-table name", t.Name())
	}
	sm.tables[key] = t
	t.owner.Store(sm)
	sm.epoch.Add(1)
	return nil
}

// Epoch returns the catalog mutation counter. It advances on every table or
// view registration/removal; plan caches compare it to detect staleness.
func (sm *StorageManager) Epoch() int64 { return sm.epoch.Load() }

// GetTable looks a table up by name (case-insensitive). Meta-table names
// resolve to a freshly materialized snapshot; base tables shadow them.
func (sm *StorageManager) GetTable(name string) (*Table, error) {
	key := strings.ToLower(name)
	sm.mu.RLock()
	t, ok := sm.tables[key]
	provider := sm.meta[key]
	sm.mu.RUnlock()
	if ok {
		return t, nil
	}
	if provider != nil {
		// Materialized outside the catalog lock: providers read other
		// locked subsystems (tables, scheduler, metrics registry).
		return provider()
	}
	return nil, fmt.Errorf("storage: no table named %q", name)
}

// RegisterMetaTable installs a virtual system table under the given name
// (conventionally prefixed "meta_"). Re-registering replaces the provider.
func (sm *StorageManager) RegisterMetaTable(name string, p MetaTableProvider) {
	sm.mu.Lock()
	sm.meta[strings.ToLower(name)] = p
	sm.mu.Unlock()
}

// HasTable reports whether a table with the name exists.
func (sm *StorageManager) HasTable(name string) bool {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	_, ok := sm.tables[strings.ToLower(name)]
	return ok
}

// DropTable removes a table from the catalog.
func (sm *StorageManager) DropTable(name string) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := sm.tables[key]; !ok {
		return fmt.Errorf("storage: no table named %q", name)
	}
	delete(sm.tables, key)
	sm.epoch.Add(1)
	return nil
}

// TableNames returns the sorted names of all registered tables.
func (sm *StorageManager) TableNames() []string {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	names := make([]string, 0, len(sm.tables))
	for _, t := range sm.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

// AddView stores a named view as its SQL text; the SQL translator embeds the
// view's plan when the name is referenced.
func (sm *StorageManager) AddView(name, sql string) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := sm.views[key]; ok {
		return fmt.Errorf("storage: view %q already exists", name)
	}
	sm.views[key] = sql
	sm.epoch.Add(1)
	return nil
}

// Views returns a snapshot of all views (name -> SQL text).
func (sm *StorageManager) Views() map[string]string {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	out := make(map[string]string, len(sm.views))
	for name, sql := range sm.views {
		out[name] = sql
	}
	return out
}

// GetView returns the SQL text of a view.
func (sm *StorageManager) GetView(name string) (string, bool) {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	sql, ok := sm.views[strings.ToLower(name)]
	return sql, ok
}

// DropView removes a view.
func (sm *StorageManager) DropView(name string) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := sm.views[key]; !ok {
		return fmt.Errorf("storage: no view named %q", name)
	}
	delete(sm.views, key)
	sm.epoch.Add(1)
	return nil
}

// LoadCSV bulk-loads delimiter-separated values into a new table with the
// given schema and registers it. Empty fields in nullable columns load as
// NULL. The table is registered first and filled by a Loader, so each chunk
// is published sealed, the last one when the input ends; a load that fails is
// dropped again. This backs the benchmark runner's "provide your own .csv"
// feature (paper §2.10).
func (sm *StorageManager) LoadCSV(name string, defs []ColumnDefinition, r io.Reader, delim rune, chunkSize int, useMvcc bool) (_ *Table, err error) {
	table := NewTable(name, defs, chunkSize, useMvcc)
	if err := sm.AddTable(table); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = sm.DropTable(name) // registered above; the load's error is the one to report
		}
	}()
	l := NewLoader(table, 0)
	defer func() {
		if cerr := l.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	cr := csv.NewReader(r)
	cr.Comma = delim
	cr.ReuseRecord = true
	row := make([]types.Value, len(defs))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: csv read: %w", err)
		}
		if len(rec) != len(defs) {
			return nil, fmt.Errorf("storage: csv row has %d fields, want %d", len(rec), len(defs))
		}
		for i, field := range rec {
			if field == "" && defs[i].Nullable {
				row[i] = types.NullValue
				continue
			}
			if row[i], err = types.ParseValue(defs[i].Type, field); err != nil {
				return nil, fmt.Errorf("storage: csv field %d: %w", i, err)
			}
		}
		for _, v := range row {
			switch {
			case v.IsNull():
				l.Null()
			case v.Type == types.TypeInt64:
				l.Int(v.I)
			case v.Type == types.TypeFloat64:
				l.Float(v.F)
			default:
				l.Str(v.S)
			}
		}
		l.EndRow()
	}
	return table, nil
}
