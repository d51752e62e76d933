package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
		Note:    "a note",
	}
	t.AddRow("alpha", "1")
	t.AddRow("a-much-longer-name", "2")
	return t
}

func TestFprintAligned(t *testing.T) {
	var sb strings.Builder
	if err := sample().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("missing note")
	}
	lines := strings.Split(out, "\n")
	var header, row1 string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			header = l
			row1 = lines[i+2]
			break
		}
	}
	if header == "" {
		t.Fatalf("no header in output:\n%s", out)
	}
	// The value column must start at the same offset in header and rows.
	hIdx := strings.Index(header, "value")
	rIdx := strings.Index(row1, "1")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header@%d row@%d\n%s", hIdx, rIdx, out)
	}
}

func TestAddRowPadding(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.AddRow("only-one")
	if len(tab.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tab.Rows[0])
	}
	tab.AddRow("1", "2", "3", "4") // extra cell dropped
	if len(tab.Rows[1]) != 3 {
		t.Fatalf("row not truncated: %v", tab.Rows[1])
	}
}

func TestCSV(t *testing.T) {
	tab := &Table{Headers: []string{"name", "note"}}
	tab.AddRow("plain", `has "quotes", and commas`)
	var sb strings.Builder
	if err := tab.FprintCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "name,note\n") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, `"has ""quotes"", and commas"`) {
		t.Fatalf("csv escaping: %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(1.25) != "+1.2%" && Pct(1.25) != "+1.3%" {
		t.Fatalf("Pct = %q", Pct(1.25))
	}
	if Pct(-3.0) != "-3.0%" {
		t.Fatalf("Pct = %q", Pct(-3.0))
	}
	if F3(1.23456) != "1.235" || F4(0.00012) != "0.0001" {
		t.Fatalf("F3/F4: %q %q", F3(1.23456), F4(0.00012))
	}
}
