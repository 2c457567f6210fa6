package operators

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hyrise/internal/observe"
	"hyrise/internal/scheduler"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// fakeOp is a plan node that can succeed (producing an empty table) or fail
// with its own error, for exercising Execute's error selection.
type fakeOp struct {
	name   string
	inputs []Operator
	err    error
	delay  time.Duration
}

func (f *fakeOp) Name() string       { return f.name }
func (f *fakeOp) Inputs() []Operator { return f.inputs }
func (f *fakeOp) Run(ctx *ExecContext, inputs []*storage.Table) (*storage.Table, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.err != nil {
		return nil, f.err
	}
	return storage.NewTable(f.name, []storage.ColumnDefinition{{Name: "x", Type: types.TypeInt64}}, 0, false), nil
}

func TestExecuteSurfacesDeepestError(t *testing.T) {
	// Root fails AND its grandchild fails: the deeper error must win, not
	// the one that happens to be recorded first.
	leafErr := errors.New("leaf exploded")
	rootErr := errors.New("root exploded")
	leaf := &fakeOp{name: "leaf", err: leafErr}
	mid := &fakeOp{name: "mid", inputs: []Operator{leaf}}
	root := &fakeOp{name: "root", inputs: []Operator{mid}, err: rootErr}

	_, err := Execute(root, NewExecContext(storage.NewStorageManager(), nil, nil))
	if !errors.Is(err, leafErr) {
		t.Fatalf("Execute error = %v, want the leaf's error", err)
	}
}

func TestExecuteErrorTieBreaksByPlanOrder(t *testing.T) {
	// Two failing operators at the same depth: the one earlier in preorder
	// wins, deterministically.
	left := &fakeOp{name: "left", err: errors.New("left failed")}
	right := &fakeOp{name: "right", err: errors.New("right failed")}
	root := &fakeOp{name: "root", inputs: []Operator{left, right}}

	for i := 0; i < 20; i++ {
		_, err := Execute(root, NewExecContext(storage.NewStorageManager(), nil, nil))
		if err == nil || !strings.Contains(err.Error(), "left failed") {
			t.Fatalf("run %d: error = %v, want left's error", i, err)
		}
	}
}

func TestExecuteErrorDeterministicUnderScheduler(t *testing.T) {
	// The same failing plan must report the same root cause regardless of
	// scheduler interleaving. The shallow failure is made fast and the deep
	// one slow to tempt a racy implementation into picking the first error.
	sched := scheduler.New(4)
	defer sched.Shutdown()
	ctx := NewExecContext(storage.NewStorageManager(), sched, nil)

	deep := &fakeOp{name: "deep", err: errors.New("deep failed"), delay: 2 * time.Millisecond}
	mid := &fakeOp{name: "mid", inputs: []Operator{deep}}
	shallow := &fakeOp{name: "shallow", err: errors.New("shallow failed")}
	root := &fakeOp{name: "root", inputs: []Operator{mid, shallow}}

	for i := 0; i < 20; i++ {
		_, err := Execute(root, ctx)
		if err == nil || !strings.Contains(err.Error(), "deep failed") {
			t.Fatalf("run %d: error = %v, want the deepest error", i, err)
		}
	}
}

func TestExecuteFailedInputSkipsDownstream(t *testing.T) {
	// A parent of a failed operator must not run (its inputs are missing),
	// and must not manufacture its own error.
	leaf := &fakeOp{name: "leaf", err: errors.New("leaf failed")}
	root := &fakeOp{name: "root", inputs: []Operator{leaf}}

	tr := observe.NewTrace("q")
	ctx := NewExecContext(storage.NewStorageManager(), nil, nil)
	ctx.Trace = tr
	_, err := Execute(root, ctx)
	if err == nil || !strings.Contains(err.Error(), "leaf failed") {
		t.Fatalf("error = %v", err)
	}
	if sp := tr.Op(root); sp != nil {
		t.Fatalf("root ran despite failed input: %+v", sp)
	}
}

func TestExecuteRecordsTraceSpans(t *testing.T) {
	leaf := &fakeOp{name: "leaf"}
	root := &fakeOp{name: "root", inputs: []Operator{leaf}}

	tr := observe.NewTrace("q")
	ctx := NewExecContext(storage.NewStorageManager(), nil, nil)
	ctx.Trace = tr
	if _, err := Execute(root, ctx); err != nil {
		t.Fatal(err)
	}
	spans := tr.OpSpans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Name != "leaf" || spans[1].Name != "root" {
		t.Fatalf("span order = %+v, want leaf before root", spans)
	}
}
