package trace

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "n", "rounds")
	tb.AddRow("1024", "1236")
	tb.AddRow("4096", "1556")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "n", "rounds", "1024", "1556", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	if tb.Title() != "demo" {
		t.Errorf("Title = %q", tb.Title())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", "y")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	// Column 2 starts at the same offset in header and data row.
	if strings.Index(lines[0], "bbbb") != strings.Index(lines[2], "y") {
		t.Errorf("misaligned columns:\n%s", sb.String())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow(`with,comma`, `with"quote`)
	tb.AddRow("with\nnewline", `both,"of them`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "name,value\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "plain,1\n") {
		t.Errorf("plain cells must not be quoted: %q", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Errorf("quote cell not escaped: %q", out)
	}
	if !strings.Contains(out, "\"with\nnewline\"") {
		t.Errorf("newline cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"both,""of them"`) {
		t.Errorf("mixed cell not escaped: %q", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Title", "x", "y")
	tb.AddRow("1", "2")
	var sb strings.Builder
	if err := tb.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "**Title**") || !strings.Contains(out, "| x | y |") {
		t.Errorf("markdown output wrong:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestTableRowValidation(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestTableNeedsColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty headers did not panic")
		}
	}()
	NewTable("t")
}

func TestAddRowValuesFormats(t *testing.T) {
	tb := NewTable("t", "int", "float", "string")
	tb.AddRowValues(42, 3.14159265, "hi")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "42,3.142,hi") {
		t.Errorf("formatted row wrong: %q", sb.String())
	}
}
