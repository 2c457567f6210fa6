package plugin

import (
	"fmt"
	"sort"
	"sync"

	"hyrise/internal/encoding"
	"hyrise/internal/index"
	"hyrise/internal/observe"
	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements the paper's prime plugin use case (§3.2): a
// self-driving component that assesses the database and tunes the physical
// design autonomously — index selection and encoding selection, two of the
// aspects the paper lists ("the selection of indexes, ... and an automatic
// selection of efficient encoding and compression schemes per chunk").

func init() {
	Register("index_selection", func() Plugin { return &IndexSelectionPlugin{} })
	Register("encoding_advisor", func() Plugin { return &EncodingAdvisorPlugin{} })
}

// IndexSelectionPlugin builds per-chunk indexes on high-selectivity columns
// of the largest tables: a workload-independent physical-design heuristic
// (distinct count close to row count means point predicates are selective
// and index-friendly). Each chunk's segment decides the structure
// (index.AddIndexToChunk).
type IndexSelectionPlugin struct {
	mu      sync.Mutex
	engine  *pipeline.Engine
	created []string // "table.column" descriptors, for inspection
}

// maxIndexes bounds how many columns get indexed per Advise run.
const maxIndexes = 8

// Start implements Plugin.
func (p *IndexSelectionPlugin) Start(engine *pipeline.Engine) error {
	p.mu.Lock()
	p.engine = engine
	p.mu.Unlock()
	return p.Advise()
}

// Stop implements Plugin.
func (p *IndexSelectionPlugin) Stop() error { return nil }

// Created lists the indexes the plugin built.
func (p *IndexSelectionPlugin) Created() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.created))
	copy(out, p.created)
	return out
}

type indexCandidate struct {
	table   *storage.Table
	tname   string
	col     types.ColumnID
	colName string
	score   float64
}

// Advise scans the catalog and builds the most promising indexes.
func (p *IndexSelectionPlugin) Advise() error {
	p.mu.Lock()
	engine := p.engine
	p.mu.Unlock()
	if engine == nil {
		return fmt.Errorf("plugin: not started")
	}
	sm := engine.StorageManager()
	stats := engine.Statistics()

	var candidates []indexCandidate
	for _, name := range sm.TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			continue
		}
		rows := float64(t.RowCount())
		if rows < 1000 {
			continue // indexing tiny tables never pays off
		}
		ts := stats.Get(t)
		for col, def := range t.ColumnDefinitions() {
			cs := ts.Column(types.ColumnID(col))
			if cs == nil || cs.DistinctCount == 0 {
				continue
			}
			// Selectivity score: distinct/rows; 1.0 = unique column.
			score := cs.DistinctCount / rows
			if score < 0.5 {
				continue
			}
			candidates = append(candidates, indexCandidate{
				table: t, tname: name, col: types.ColumnID(col), colName: def.Name, score: score * rows,
			})
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].score > candidates[j].score })

	built := 0
	for _, cand := range candidates {
		if built >= maxIndexes {
			break
		}
		if err := p.buildIndex(cand); err != nil {
			return err
		}
		built++
	}
	return nil
}

func (p *IndexSelectionPlugin) buildIndex(cand indexCandidate) error {
	for _, c := range cand.table.Chunks() {
		if !c.IsImmutable() || c.GetIndex(cand.col) != nil {
			continue
		}
		if err := index.AddIndexToChunk(c, cand.col); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.created = append(p.created, cand.tname+"."+cand.colName)
	p.mu.Unlock()
	return nil
}

// EncodingAdvisorPlugin picks an encoding per segment (paper §3.2: "an
// automatic selection of efficient encoding and compression schemes per
// chunk") by the size model chunks are sealed by (encoding.Sizes), and
// re-encodes the segments of scanned columns toward what the observed
// workload scans fastest.
type EncodingAdvisorPlugin struct {
	mu      sync.Mutex
	engine  *pipeline.Engine
	applied map[string]string // "table.column" -> encoding name
}

// minScans is the number of observed segment scans a column needs before
// AdviseFromWorkload will consider re-encoding it; below that the workload
// signal is noise.
const minScans = 8

// Start implements Plugin.
func (p *EncodingAdvisorPlugin) Start(engine *pipeline.Engine) error {
	p.mu.Lock()
	p.engine = engine
	p.applied = make(map[string]string)
	p.mu.Unlock()
	return p.Advise()
}

// Stop implements Plugin.
func (p *EncodingAdvisorPlugin) Stop() error { return nil }

// Applied reports the chosen encodings.
func (p *EncodingAdvisorPlugin) Applied() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.applied))
	for k, v := range p.applied {
		out[k] = v
	}
	return out
}

// Advise records per column what the size model chose for each table: the
// encoding of its first sealed chunk. It seals nothing — the catalog's Sealer
// already ran the size model on every chunk the moment it filled or its load
// ended (Table.SealTail).
func (p *EncodingAdvisorPlugin) Advise() error {
	p.mu.Lock()
	engine := p.engine
	p.mu.Unlock()
	if engine == nil {
		return fmt.Errorf("plugin: not started")
	}
	sm := engine.StorageManager()
	for _, name := range sm.TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			continue
		}
		var first *storage.Chunk
		for _, c := range t.Chunks() {
			if c.IsImmutable() {
				first = c
				break
			}
		}
		if first == nil {
			continue
		}
		p.mu.Lock()
		for col, def := range t.ColumnDefinitions() {
			if spec, ok := encoding.SpecOf(first.GetSegment(types.ColumnID(col))); ok {
				p.applied[name+"."+def.Name] = spec.String()
			}
		}
		p.mu.Unlock()
	}
	return nil
}

// AdviseFromWorkload closes the self-driving loop: it reads the per-column
// scan statistics the executor records (code-path mix, predicate shapes,
// selectivity) and re-encodes the segments of hot columns toward whatever
// representation the observed workload scans fastest, encoded ones included
// when the workload disagrees with the size model's choice.
func (p *EncodingAdvisorPlugin) AdviseFromWorkload() error {
	p.mu.Lock()
	engine := p.engine
	p.mu.Unlock()
	if engine == nil {
		return fmt.Errorf("plugin: not started")
	}
	sm := engine.StorageManager()
	stats := engine.Statistics()
	for _, snap := range engine.ScanStats().Snapshot() {
		if snap.Scans < minScans {
			continue
		}
		t, err := sm.GetTable(snap.Table)
		if err != nil {
			continue // dropped since it was scanned
		}
		col, err := t.ColumnID(snap.Column)
		if err != nil {
			continue
		}
		if stats.Get(t).Column(col).Empty() {
			continue // no rows, or only NULLs: nothing a scan could be faster on
		}
		var want encoding.Spec
		changed := false
		for _, c := range t.Chunks() {
			if !c.IsImmutable() {
				continue
			}
			seg := c.GetSegment(col)
			cur, ok := encoding.SpecOf(seg)
			if !ok {
				continue // reference/unknown segment
			}
			if want = chooseFromWorkload(snap, seg); cur.String() == want.String() {
				continue // already there
			}
			enc, _ := encoding.Seal(seg, false, &want)
			c.ReplaceSegment(col, enc)
			changed = true
		}
		if changed {
			p.mu.Lock()
			p.applied[snap.Table+"."+snap.Column] = want.String()
			p.mu.Unlock()
		}
	}
	return nil
}

// chooseFromWorkload maps a column's observed scan profile and a segment's
// size model to an encoding; its codes take the vector the size model prices
// that encoding in. The workload path never picks Unencoded: a column that
// shows up here is being scanned, and every encoded representation answers at
// least the dictionary's predicate set without materializing.
func chooseFromWorkload(snap observe.ColumnScanSnapshot, seg storage.Segment) encoding.Spec {
	sizes, vectors := encoding.SizesOf(seg)
	e := encoding.Dictionary
	switch {
	case sizes.Choose() == encoding.RunLength:
		// Near-constant data: run-length answers any predicate per run.
		e = encoding.RunLength
	case snap.FallbackRatio() > 0.25:
		// The current representation keeps materializing; dictionary
		// supports the widest encoded predicate set.
	case snap.Ranges > snap.Points && sizes.Saves(encoding.FrameOfReference):
		// Range-heavy over integers (or a float column's exact decimals)
		// that sit close to their block's frame:
		// frame-of-reference rewrites ranges into the offset domain and
		// short-circuits whole blocks via min/max.
		e = encoding.FrameOfReference
	default:
		// Point-heavy or mixed: dictionary answers equality with one
		// binary search over the sorted dictionary.
	}
	return encoding.Spec{Encoding: e, Compression: vectors[e]}
}
