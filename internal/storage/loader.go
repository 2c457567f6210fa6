package storage

import (
	"fmt"
	"runtime"
)

// Loader fills a table a whole chunk at a time: the path of the bulk loads
// (tpch.Generate, tpcc.Generate, LoadCSV). A row is its values, column by
// column (Int, Float, Str, Null), then EndRow. They go into the typed value
// segments of a chunk nobody else can see, with room for the rows the load
// still expects. A full chunk gets its zones, is sealed by the catalog's
// Sealer and is published with Table.AppendChunk, so a reader never sees a
// half-built or half-sealed chunk. Up to GOMAXPROCS chunks seal at once while the loader
// fills the next one; they are published strictly in order. Close seals and
// publishes the partial last chunk. The table takes no other writes until
// Close returns.
type Loader struct {
	t      *Table
	c      *Chunk // the chunk being filled, nil before its first value
	col    int    // the next value's column
	rows   int    // the rows of c
	expect int    // rows expected beyond the chunks opened so far
	err    error  // the first value a chunk could not take
	bytes  []int  // each string column's blob bytes in the last chunk taken
	last   int    // the rows of that chunk

	slots chan struct{} // one per chunk sealed or waiting to be published
	prev  chan struct{} // closed once the last chunk handed off is published
}

// NewLoader starts a bulk load of about expect rows (0 if unknown) into t, a
// data table, registered with its catalog if its chunks are to be sealed.
func NewLoader(t *Table, expect int) *Loader {
	l := &Loader{t: t, expect: expect, bytes: make([]int, len(t.defs)), slots: make(chan struct{}, runtime.GOMAXPROCS(0)), prev: make(chan struct{})}
	close(l.prev)
	return l
}

// Table returns the table being loaded.
func (l *Loader) Table() *Table { return l.t }

// Int, Float and Str append the current row's value of the next column, which
// must have the type; Null appends a NULL to a nullable column. A string the
// chunk's column cannot take (StringSegment.Append) fails the load: Close
// reports it, and no chunk is published from then on.
func (l *Loader) Int(v int64)     { l.next().(*ValueSegment[int64]).Append(v, false) }
func (l *Loader) Float(v float64) { l.next().(*ValueSegment[float64]).Append(v, false) }
func (l *Loader) Str(v string)    { l.fail(l.next().(*StringSegment).Append(v, false)) }

func (l *Loader) Null() {
	switch s := l.next().(type) {
	case *ValueSegment[int64]:
		s.Append(0, true)
	case *ValueSegment[float64]:
		s.Append(0, true)
	case *StringSegment:
		l.fail(s.Append("", true))
	}
}

func (l *Loader) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// next returns the segment of the current row's next value. A chunk's first
// value opens the chunk as the appends open one, its columns with room for
// the rows still expected, up to a chunk, a string column's blob for them at
// the bytes a row took in the last chunk, and an eighth more: the next chunk's
// rows differ.
func (l *Loader) next() Segment {
	if l.c == nil {
		l.c = l.t.newMutableChunk()
		if size := min(l.t.targetChunkSize, l.expect); size > 0 {
			for i, seg := range l.c.segments {
				seg.(interface{ reserve(int, int) }).reserve(size, l.bytes[i]*size/max(l.last, 1)*9/8)
			}
		}
		l.expect -= l.t.targetChunkSize
	}
	l.col++
	return l.c.segments[l.col-1]
}

// EndRow ends the current row; the row that fills the chunk hands it off.
func (l *Loader) EndRow() {
	if l.col != len(l.t.defs) {
		panic(fmt.Sprintf("storage: loaded row has %d values, table %q has %d columns", l.col, l.t.name, len(l.t.defs)))
	}
	l.col = 0
	if l.rows++; l.rows < l.t.targetChunkSize {
		return
	}
	if l.err != nil {
		l.take() // a failed load publishes nothing more
	} else {
		l.handOff()
	}
}

// Close waits until every full chunk is published, then seals and publishes
// the partial last one. It returns the error that failed the load, if any.
func (l *Loader) Close() error {
	if l.col != 0 {
		panic(fmt.Sprintf("storage: load of %q ends inside a row", l.t.name))
	}
	<-l.prev
	if c := l.take(); c != nil && l.err == nil {
		l.seal(c)
		l.t.AppendChunk(c)
	}
	return l.err
}

// handOff passes the full chunk to a goroutine of its own, which seals it and
// publishes it after its predecessor; the loader opens the next chunk.
func (l *Loader) handOff() {
	c := l.take()
	l.slots <- struct{}{}
	prev, done := l.prev, make(chan struct{})
	l.prev = done
	go func() {
		l.seal(c)
		<-prev
		l.t.AppendChunk(c)
		close(done)
		<-l.slots
	}()
}

// take ends the chunk being filled.
func (l *Loader) take() *Chunk {
	c := l.c
	if c != nil {
		c.rowCount.Store(int64(l.rows))
		for i, seg := range c.segments {
			if s, ok := seg.(*StringSegment); ok {
				l.bytes[i] = len(s.blob)
			}
		}
		l.last = l.rows
	}
	l.c, l.rows = nil, 0
	return c
}

// seal gives a chunk its zones, which the Sealer reads, and seals it.
func (l *Loader) seal(c *Chunk) {
	c.zones = zonesOf(c.segments)
	c.sealing.Lock()
	l.t.seal(c)
}
