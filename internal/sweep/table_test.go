package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"breathe/internal/api"
)

// TestTableColumns pins the table's columns across all three renderings:
// the grid coordinates, then the aggregates. The result comes from a real
// (tiny) sweep so the columns are exercised end-to-end, not
// hand-assembled.
func TestTableColumns(t *testing.T) {
	spec := Spec{
		Protocols: []string{api.ProtoBroadcast},
		Ns:        []int{64},
		Seeds:     1,
		BaseSeed:  3,
	}
	res, err := Run(spec, NewLocalRunner(newService(t, 1)), Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}

	var csv bytes.Buffer
	if err := res.Table().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), csv.String())
	}
	wantHeader := "protocol,n,eps,crash,mean_rounds,max_rounds,mean_messages,success_rate,mean_stage1_bias"
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q, want %q", lines[0], wantHeader)
	}
	if row := strings.Split(lines[1], ","); len(row) != 9 || row[0] != api.ProtoBroadcast {
		t.Errorf("CSV row = %q, want 9 cells starting with broadcast", lines[1])
	}

	var txt bytes.Buffer
	if err := res.Table().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "mean_rounds") {
		t.Errorf("text table missing its columns:\n%s", txt.String())
	}

	var md bytes.Buffer
	if err := res.Table().WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| crash | mean_rounds |") {
		t.Errorf("markdown header out of order:\n%s", md.String())
	}
}

// TestTableScheduleDefault pins that a spec without an explicit schedule
// runs the keyed schedule: its cells hash, and render, exactly like a
// spec naming "Keyed" (Normalize lowercases the name).
func TestTableScheduleDefault(t *testing.T) {
	svc := newService(t, 1)
	run := func(schedule string) *Result {
		t.Helper()
		spec := Spec{Ns: []int{64}, Seeds: 1, BaseSeed: 3, Schedule: schedule}
		res, err := Run(spec, NewLocalRunner(svc), Options{Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, keyed := run(""), run("Keyed")
	if !reflect.DeepEqual(def.Cells, keyed.Cells) {
		t.Fatalf("default and keyed cells differ:\n%+v\n%+v", def.Cells, keyed.Cells)
	}
	var a, b bytes.Buffer
	if err := def.Table().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := keyed.Table().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("default and keyed tables differ:\n%s\n%s", a.String(), b.String())
	}
}
