package pipeline

import (
	"reflect"
	"testing"

	"hyrise/internal/operators"
)

// TestRightAndFullOuterJoinSQL covers the new join modes end to end:
// parse → LQP → optimizer → PQP → execution.
func TestRightAndFullOuterJoinSQL(t *testing.T) {
	_, s := newTestEngine(t, DefaultConfig())
	// dept 3 ('legal') has no employees; add an employee with a dangling
	// department so both sides have unmatched rows.
	mustExec(t, s, `INSERT INTO emp VALUES (7, 9, 'gil', 50.0, NULL)`)

	// RIGHT JOIN keeps employees without a department.
	got := sortedFlat(t, s, `SELECT d_name, e_name FROM dept RIGHT JOIN emp ON d_id = e_dept`)
	want := []string{
		"NULL|gil",
		"eng|ada", "eng|bob", "eng|fay",
		"sales|cyd", "sales|dan", "sales|eve",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("right join = %v, want %v", got, want)
	}

	// RIGHT OUTER JOIN is the same thing.
	got2 := sortedFlat(t, s, `SELECT d_name, e_name FROM dept RIGHT OUTER JOIN emp ON d_id = e_dept`)
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("right outer join = %v, want %v", got2, want)
	}

	// FULL OUTER JOIN keeps unmatched rows of both sides.
	got3 := sortedFlat(t, s, `SELECT d_name, e_name FROM dept FULL OUTER JOIN emp ON d_id = e_dept`)
	got4 := sortedFlat(t, s, `SELECT d_name, e_name FROM dept FULL JOIN emp ON d_id = e_dept`)
	wantFull := []string{
		"NULL|gil",
		"eng|ada", "eng|bob", "eng|fay",
		"legal|NULL",
		"sales|cyd", "sales|dan", "sales|eve",
	}
	if !reflect.DeepEqual(got3, wantFull) {
		t.Errorf("full outer join = %v, want %v", got3, wantFull)
	}
	if !reflect.DeepEqual(got4, wantFull) {
		t.Errorf("full join = %v, want %v", got4, wantFull)
	}

	// Aggregation over a right join exercises NULL-extended left columns.
	got5 := sortedFlat(t, s, `SELECT d_name, COUNT(*) FROM dept RIGHT JOIN emp ON d_id = e_dept GROUP BY d_name`)
	want5 := []string{"NULL|1", "eng|3", "sales|3"}
	if !reflect.DeepEqual(got5, want5) {
		t.Errorf("right join aggregate = %v, want %v", got5, want5)
	}
}

// TestParallelModesAgreeOverSQL runs the same join+aggregation workload with
// every operator pinned serial and with every operator forced parallel and
// demands identical rows in identical order.
func TestParallelModesAgreeOverSQL(t *testing.T) {
	queries := []string{
		`SELECT d_name, e_name FROM dept JOIN emp ON d_id = e_dept ORDER BY e_name`,
		`SELECT d_name, e_name FROM dept LEFT JOIN emp ON d_id = e_dept ORDER BY d_name, e_name`,
		`SELECT d_name, e_name FROM dept FULL OUTER JOIN emp ON d_id = e_dept ORDER BY d_name, e_name`,
		`SELECT e_dept, COUNT(*), SUM(e_salary) FROM emp GROUP BY e_dept ORDER BY e_dept`,
	}

	run := func(cfg Config) [][]string {
		_, s := newTestEngine(t, cfg)
		var out [][]string
		for _, q := range queries {
			out = append(out, flatRows(t, s, q))
		}
		return out
	}

	serialCfg := DefaultConfig()
	serialCfg.ParallelMode = operators.ParallelSerial
	want := run(serialCfg)

	radixCfg := DefaultConfig()
	radixCfg.UseScheduler = true
	radixCfg.SchedulerWorkers = 4
	radixCfg.ParallelMode = operators.ParallelForce
	got := run(radixCfg)

	for i := range queries {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %q: forced-parallel rows differ\ngot:  %v\nwant: %v", queries[i], got[i], want[i])
		}
	}
}
