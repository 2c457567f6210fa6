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

// EncodeAndFilter applies the encoding spec to every TPC-H table and
// attaches the default pruning filters to every immutable chunk — the
// post-load step of the benchmark binaries.
func EncodeAndFilter(sm *storage.StorageManager, spec encoding.Spec) error {
	for _, name := range TableNames() {
		t, err := sm.GetTable(name)
		if err != nil {
			return err
		}
		if spec.Encoding != encoding.Unencoded {
			if err := encoding.EncodeTable(t, spec, nil); err != nil {
				return err
			}
		} else {
			t.FinalizeLastChunk()
		}
		if err := filter.AttachDefaultFilters(t); err != nil {
			return err
		}
	}
	return nil
}
