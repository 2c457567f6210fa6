package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// queryDigest identifies a query result: its row count and an
// order-sensitive checksum of every cell. Floats are rounded to six
// significant digits so that a different summation order (parallel
// aggregation) does not change the digest.
type queryDigest struct {
	Rows     int    `json:"rows"`
	Checksum string `json:"checksum"`
}

func digest(t *storage.Table) queryDigest {
	h := fnv.New64a()
	rows := 0
	if t != nil {
		var buf []byte
		for _, c := range t.Chunks() {
			for o := 0; o < c.Size(); o++ {
				for col := 0; col < t.ColumnCount(); col++ {
					v := c.GetSegment(types.ColumnID(col)).ValueAt(types.ChunkOffset(o))
					buf = buf[:0]
					if !v.IsNull() && v.Type == types.TypeFloat64 {
						buf = strconv.AppendFloat(buf, v.F, 'g', 6, 64)
					} else {
						buf = append(buf, v.String()...)
					}
					buf = append(buf, 0x1f)
					_, _ = h.Write(buf)
				}
				_, _ = h.Write([]byte{0x1e})
				rows++
			}
		}
	}
	return queryDigest{Rows: rows, Checksum: fmt.Sprintf("%016x", h.Sum64())}
}

// streamHash hashes the inputs a workload generates, in order, so that two
// runs can prove they fed the system the same statement stream. The zero
// value is ready to use.
type streamHash struct{ h hash.Hash64 }

func (s *streamHash) add(text string) {
	if s.h == nil {
		s.h = fnv.New64a()
	}
	_, _ = io.WriteString(s.h, text)
	_, _ = s.h.Write([]byte{0xff})
}

func (s *streamHash) addInt(v int64) { s.add(strconv.FormatInt(v, 10)) }

func (s *streamHash) String() string {
	if s.h == nil {
		return "-"
	}
	return fmt.Sprintf("%016x", s.h.Sum64())
}

// The golden file holds, per data size and seed, the digests of Q1..Q22.
// Seeds without an entry are still checked for agreement between the two
// engines and between all rounds.
type goldenFile map[string][]queryDigest

func goldenKey(o options) string {
	return fmt.Sprintf("sf%g/chunk%d/seed%d", o.sizes.tpchSF, o.sizes.tpchChunk, o.seed)
}

func goldenPath(o options) string { return filepath.Join(o.root, "bench", "golden", "tpch_power.json") }

func readGolden(o options) (goldenFile, error) {
	g := goldenFile{}
	data, err := os.ReadFile(goldenPath(o))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(o), err)
	}
	return g, nil
}

// goldenFor returns the digests recorded for this size and seed, nil when
// none are. A golden file that is missing altogether records nothing; one
// that cannot be read or parsed is an error, not a disabled oracle.
func goldenFor(o options) ([]queryDigest, error) {
	g, err := readGolden(o)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return g[goldenKey(o)], nil
}

func writeGolden(o options, digests []queryDigest) error {
	g, err := readGolden(o)
	if errors.Is(err, fs.ErrNotExist) {
		g, err = goldenFile{}, nil
	}
	if err != nil {
		return err
	}
	g[goldenKey(o)] = digests
	// One line per seed keeps the file and its diffs readable.
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(g[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%q: %s", k, line)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath(o)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(o), []byte(b.String()), 0o644)
}
