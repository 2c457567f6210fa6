package tpch

import (
	"hyrise/internal/encoding"
	"hyrise/internal/filter"
	"hyrise/internal/storage"
)

// DefaultEncoding is the benchmark default (paper: "a column-based layout
// and dictionary encoding are used" in the default setup).
func DefaultEncoding() encoding.Spec {
	return encoding.Spec{Encoding: encoding.Dictionary, Compression: encoding.FixedSizeByteAligned}
}

// EncodeAndFilter seals every chunk of every TPC-H table with the encoding
// spec (filter.Seal: the spec's encoding and the default pruning filters, from
// one summary per segment) — the post-load step of the benchmark binaries.
func EncodeAndFilter(sm *storage.StorageManager, spec encoding.Spec) error {
	for _, name := range TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			return err
		}
		t.FinalizeLastChunk()
		for _, c := range t.Chunks() {
			filter.Seal(c, &spec)
		}
	}
	return nil
}
