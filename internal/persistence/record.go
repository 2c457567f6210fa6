package persistence

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyrise/internal/concurrency"
	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Record kinds. The numeric values are part of the on-disk WAL format.
const (
	recInsert byte = iota + 1
	recDelete
	recCommit
	recCreateTable
	recDropTable
	recCreateView
	recDropView
)

// record is one decoded WAL record. Insert and delete records buffer until
// the transaction's commit record makes them effective; DDL records apply
// immediately (they are appended durably outside any transaction).
type record struct {
	kind byte
	tid  types.TransactionID
	cid  types.CommitID // recCommit

	table  string      // recInsert, recDelete, recCreateTable, recDropTable
	row    types.RowID // recInsert, recDelete
	values []types.Value

	created *storage.Table // recCreateTable: the empty table

	view    string // recCreateView, recDropView
	viewSQL string // recCreateView
}

// appendRedoOp appends an insert or delete redo record.
func appendRedoOp(dst []byte, tid types.TransactionID, op concurrency.RedoOp) ([]byte, error) {
	var kind byte
	switch op.Kind {
	case concurrency.RedoInsert:
		kind = recInsert
	case concurrency.RedoDelete:
		kind = recDelete
	default:
		return nil, fmt.Errorf("persistence: unknown redo kind %d", op.Kind)
	}
	dst = binary.AppendUvarint(append(dst, kind), uint64(tid))
	dst = encoding.AppendString(dst, op.Table)
	dst = binary.AppendUvarint(dst, uint64(op.Row.Chunk))
	dst = binary.AppendUvarint(dst, uint64(op.Row.Offset))
	if kind == recDelete {
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(op.Values)))
	for _, v := range op.Values {
		var err error
		if dst, err = appendValue(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendCommitRecord(dst []byte, tid types.TransactionID, cid types.CommitID) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(append(dst, recCommit), uint64(tid)), uint64(cid))
}

// appendNamesRecord appends a DDL record that is its kind and strings: the
// name of the table or view DROP TABLE and DROP VIEW remove, or the name and
// SQL text of a CREATE VIEW. CREATE TABLE is its kind and appendSchema.
func appendNamesRecord(dst []byte, kind byte, names ...string) []byte {
	dst = append(dst, kind)
	for _, s := range names {
		dst = encoding.AppendString(dst, s)
	}
	return dst
}

// appendValue appends a tag byte — 0 NULL, 1 int, 2 float, 3 string, 4 bool —
// and the value's payload.
func appendValue(dst []byte, v types.Value) ([]byte, error) {
	switch v.Type {
	case types.TypeNull:
		return append(dst, 0), nil
	case types.TypeInt64:
		return binary.AppendVarint(append(dst, 1), v.I), nil
	case types.TypeFloat64:
		return binary.LittleEndian.AppendUint64(append(dst, 2), math.Float64bits(v.F)), nil
	case types.TypeString:
		return encoding.AppendString(append(dst, 3), v.S), nil
	case types.TypeBool:
		return binary.AppendVarint(append(dst, 4), v.I), nil
	}
	return nil, fmt.Errorf("persistence: cannot encode value of type %v", v.Type)
}

// readValue reads what appendValue wrote.
func readValue(r *encoding.Reader) types.Value {
	switch tag := r.Byte(); tag {
	case 0:
		return types.NullValue
	case 1:
		return types.Int(r.Varint())
	case 2:
		return types.Float(math.Float64frombits(r.Uint64LE()))
	case 3:
		return types.Str(r.Str())
	case 4:
		return types.Value{Type: types.TypeBool, I: r.Varint()}
	default:
		r.Fail(fmt.Sprintf("unknown value tag %d", tag))
		return types.NullValue
	}
}

// appendSchema appends what a table is before it holds rows: its name, chunk
// size and MVCC byte, then each column's name, type and nullable byte. The
// CREATE TABLE record and a snapshot's table header are this.
func appendSchema(dst []byte, t *storage.Table) []byte {
	dst = encoding.AppendString(dst, t.Name())
	dst = binary.AppendUvarint(dst, uint64(t.TargetChunkSize()))
	dst = append(dst, boolByte(t.UsesMvcc()))
	defs := t.ColumnDefinitions()
	dst = binary.AppendUvarint(dst, uint64(len(defs)))
	for _, d := range defs {
		dst = append(encoding.AppendString(dst, d.Name), byte(d.Type), boolByte(d.Nullable))
	}
	return dst
}

// readSchema reads what appendSchema wrote into an empty table; it is nil
// once r.Err is set.
func readSchema(r *encoding.Reader) *storage.Table {
	name, chunkSize, useMvcc := r.Str(), r.Uvarint(), r.Byte() == 1
	if chunkSize > math.MaxUint32 {
		r.Fail("chunk size exceeds the chunk offsets")
	}
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("column count exceeds the input")
	}
	var defs []storage.ColumnDefinition
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		defs = append(defs, storage.ColumnDefinition{Name: r.Str(), Type: types.DataType(r.Byte()), Nullable: r.Byte() == 1})
	}
	if r.Err() != nil {
		return nil
	}
	return storage.NewTable(name, defs, int(chunkSize), useMvcc)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeRecord parses one record payload (already CRC-verified framing).
func decodeRecord(payload []byte) (*record, error) {
	r := encoding.NewReader(payload)
	rec := &record{kind: r.Byte()}
	switch rec.kind {
	case recInsert, recDelete:
		rec.tid = types.TransactionID(r.Uvarint())
		rec.table = r.Str()
		rec.row = types.RowID{Chunk: types.ChunkID(r.Uvarint()), Offset: types.ChunkOffset(r.Uvarint())}
		if rec.kind == recDelete {
			break
		}
		n := r.Uvarint()
		if n > uint64(r.Len()) {
			r.Fail("value count exceeds record size")
		} else {
			rec.values = make([]types.Value, 0, n)
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			rec.values = append(rec.values, readValue(r))
		}
	case recCommit:
		rec.tid, rec.cid = types.TransactionID(r.Uvarint()), types.CommitID(r.Uvarint())
	case recCreateTable:
		if rec.created = readSchema(r); rec.created != nil {
			rec.table = rec.created.Name()
		}
	case recDropTable:
		rec.table = r.Str()
	case recCreateView:
		rec.view, rec.viewSQL = r.Str(), r.Str()
	case recDropView:
		rec.view = r.Str()
	default:
		return nil, fmt.Errorf("persistence: unknown record kind %d", rec.kind)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return rec, nil
}
