package tpch

import (
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
)

// DefaultEncoding is the spec the benchmark binaries seal TPC-H by: nil, the
// size model, which gives each segment its smallest representation (paper
// §2.2: "some segments of a chunk might stay unencoded, others
// dictionary-encoded"). Fig. 7 and the ablations pass their spec explicitly.
func DefaultEncoding() *encoding.Spec { return nil }

// EncodeAndFilter seals every chunk of every TPC-H table (filter.Seal: the
// spec's encoding, or the size model's for nil, and the bins of the numeric
// columns). A nil spec skips the chunks the catalog's Sealer already
// finished; hyrise-bench passes its spec over a catalog without a Sealer.
// ROADMAP 1(h) deletes the nil-spec branch with its last caller, bench/tpch.go.
func EncodeAndFilter(sm *storage.StorageManager, spec *encoding.Spec) error {
	for _, name := range TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			return err
		}
		t.SealTail()
		for _, c := range t.Chunks() {
			if spec == nil && c.SealNS() > 0 {
				continue
			}
			filter.Seal(c, spec)
		}
	}
	return nil
}
