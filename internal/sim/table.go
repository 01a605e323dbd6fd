package sim

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is one section of the evaluation report: named rows of values
// under named columns, with the formats they print in. Every number the
// report shows is a cell, and every cell is a quantity with the name
// "<table>/<row>/<column>", e.g. fig5a/geomean/MMT-FXR, which Lookup
// resolves. Names hold no whitespace and no '/', so they double as
// benchmark metric units; display text that does stays in headings and
// labels.
type Table struct {
	Name  string // first segment of every quantity name
	Title string
	// Label formats each row's label, and Head when it is set.
	Label string
	// Head labels the heading line; empty omits the heading.
	Head string
	Cols []Column
	Rows []Row
}

// Column is one named column of a table.
type Column struct {
	Name string
	// Head is the heading text (empty: Name) and HeadFmt formats it. A
	// column without HeadFmt prints no heading: its cells extend the field
	// of the column before it, as in Fig. 7(c)'s "MERGE (CATCHUP)".
	Head, HeadFmt string
	Fmt           string // formats one cell
	Pct           bool   // the cell prints 100 times its value
}

// Row is one named row of values, parallel to the table's columns, or to
// its own Cols when it is a summary row that prints differently.
type Row struct {
	Name  string
	Label string // printed label; empty prints Name
	Vals  []float64
	Cols  []Column
	// Summary marks a reduction over the other rows (a geomean, an average,
	// a total) or a point of a sweep: the quantities a benchmark reports.
	Summary bool
}

// Quantity is one named cell of a table.
type Quantity struct {
	Name    string
	Value   float64
	Summary bool // the cell's row is a summary row
}

// cols returns the columns r's values are parallel to.
func (t *Table) cols(r Row) []Column {
	if r.Cols != nil {
		return r.Cols
	}
	return t.Cols
}

// add appends a row of values under the table's columns.
func (t *Table) add(name string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Vals: vals})
}

// String renders the table: its title, underlined, then the heading and
// one line per row.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("-", utf8.RuneCountInString(t.Title)))
	if t.Head != "" {
		fmt.Fprintf(&b, t.Label, t.Head)
		for _, c := range t.Cols {
			if c.HeadFmt == "" {
				continue
			}
			head := c.Head
			if head == "" {
				head = c.Name
			}
			fmt.Fprintf(&b, c.HeadFmt, head)
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		label := r.Label
		if label == "" {
			label = r.Name
		}
		fmt.Fprintf(&b, t.Label, label)
		for i, c := range t.cols(r) {
			v := r.Vals[i]
			if c.Pct {
				v *= 100
			}
			fmt.Fprintf(&b, c.Fmt, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Quantities lists the table's cells by name, row by row.
func (t *Table) Quantities() []Quantity {
	var qs []Quantity
	for _, r := range t.Rows {
		for i, c := range t.cols(r) {
			qs = append(qs, Quantity{Name: t.Name + "/" + r.Name + "/" + c.Name, Value: r.Vals[i], Summary: r.Summary})
		}
	}
	return qs
}

// Lookup returns the quantity named "<table>/<row>/<column>" among tables.
func Lookup(tables []*Table, name string) (float64, bool) {
	for _, t := range tables {
		if !strings.HasPrefix(name, t.Name+"/") {
			continue
		}
		for _, q := range t.Quantities() {
			if q.Name == name {
				return q.Value, true
			}
		}
	}
	return 0, false
}

// num is a column of three-decimal values, w characters wide.
func num(name string, w int) Column {
	return Column{Name: name, HeadFmt: fmt.Sprintf(" %%%ds", w), Fmt: fmt.Sprintf(" %%%d.3f", w)}
}

// pct is a column of one-decimal percentages, w characters wide including
// the percent sign.
func pct(name string, w int) Column {
	return Column{Name: name, HeadFmt: fmt.Sprintf(" %%%ds", w), Fmt: fmt.Sprintf(" %%%d.1f%%%%", w-1), Pct: true}
}

// count is a column of whole numbers, w characters wide.
func count(name string, w int) Column {
	return Column{Name: name, HeadFmt: fmt.Sprintf(" %%%ds", w), Fmt: fmt.Sprintf(" %%%d.0f", w)}
}

// appTable starts a table with one row per application under an "app"
// heading.
func appTable(name, title string, cols ...Column) *Table {
	return &Table{Name: name, Title: title, Label: "%-14s", Head: "app", Cols: cols}
}
