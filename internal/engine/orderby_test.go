package engine

import (
	"testing"

	"proteus/internal/exec"
)

func TestOrderByAscDesc(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, err := e.QuerySQL("SELECT id, val FROM nums WHERE id > 1 ORDER BY val DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := int64(1 << 62)
	for _, row := range res.Rows {
		v, _ := row.Field("val")
		if v.AsInt() > prev {
			t.Fatalf("not descending: %v", res.Rows)
		}
		prev = v.AsInt()
	}
	res, err = e.QuerySQL("SELECT id, val FROM nums ORDER BY id ASC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	if v, _ := res.Rows[0].Field("id"); v.AsInt() != 1 {
		t.Errorf("first row = %s", res.Rows[0])
	}
}

func TestOrderByOnGroupedOutput(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, err := e.QuerySQL("SELECT grp, COUNT(*) AS n FROM docs GROUP BY grp ORDER BY n DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if v, _ := res.Rows[0].Field("n"); v.AsInt() != 2 {
		t.Errorf("top group = %s", res.Rows[0])
	}
}

func TestOrderByMultiKeyStable(t *testing.T) {
	e := newTestEngine(t, Config{})
	// grp has duplicates; secondary key id breaks ties deterministically.
	res, err := e.QuerySQL("SELECT id, grp FROM docs ORDER BY grp ASC, id DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if v, _ := res.Rows[0].Field("id"); v.AsInt() != 2 {
		t.Errorf("rows = %v (want grp=1 ordered by id desc first)", res.Rows)
	}
}

func TestOrderByUnknownColumn(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.QuerySQL("SELECT id FROM nums ORDER BY ghost"); err == nil {
		t.Error("ORDER BY on a column not in the output should fail")
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, err := e.QuerySQL("SELECT id FROM nums LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// TestSortedProgramSkipsEngineSort: when the columnar collect absorbed the
// ORDER BY, the program reports Sorted and still emits exactly the limited,
// ordered rows.
func TestSortedProgramSkipsEngineSort(t *testing.T) {
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn})
	p, err := e.PrepareSQL("SELECT id, name FROM big WHERE val < 50 ORDER BY id DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Program.Sorted {
		t.Fatalf("columnar collect did not absorb the ORDER BY:\n%s", p.Explain())
	}
	res, err := p.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	prev := int64(1 << 62)
	for _, row := range res.Rows {
		v, _ := row.Field("id")
		if v.AsInt() > prev {
			t.Fatalf("rows not descending: %v", res.Rows)
		}
		prev = v.AsInt()
	}
}
