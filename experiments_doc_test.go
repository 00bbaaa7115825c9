package altroute_test

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quotedTables pairs each EXPERIMENTS.md table that quotes reproduction
// numbers with the table of experiments_full_output.txt it quotes. skip
// drops leading output columns the document does not quote.
var quotedTables = []struct {
	doc, output string
	skip        int
}{
	{"## Figures 3/4 — fully-connected quadrangle", "Figures 3/4: blocking vs offered load, fully-connected quadrangle", 0},
	{"## Figures 6/7 — NSFNet, H=11", "Figures 6/7: blocking vs load, NSFNet T3 model (H=11,", 0},
	{"## Min-loss primary selection", "Min-loss vs min-hop primary selection, NSFNet", 1},
}

// TestExperimentsQuoteOutput checks every cell of the EXPERIMENTS.md
// tables above, and every quotedProse number, against
// experiments_full_output.txt (what `altsim all` prints), rounded to the
// places the document quotes.
func TestExperimentsQuoteOutput(t *testing.T) {
	doc := readLines(t, "EXPERIMENTS.md")
	out := readLines(t, "experiments_full_output.txt")
	for _, tab := range quotedTables {
		quoted := docTable(t, doc, tab.doc)
		measured := outputTable(t, out, tab.output)
		if len(quoted) == 0 {
			t.Fatalf("%s: no rows", tab.doc)
		}
		for _, row := range quoted {
			load, cells := row[0], row[1:]
			vals, ok := measured[load]
			if !ok {
				t.Errorf("%s: load %s is not in the output", tab.doc, load)
				continue
			}
			vals = vals[tab.skip:]
			if len(vals) != len(cells) {
				t.Errorf("%s: load %s quotes %d cells, the output has %d", tab.doc, load, len(cells), len(vals))
				continue
			}
			for i, cell := range cells {
				if !quotes(t, cell, vals[i]) {
					t.Errorf("%s: load %s column %d quotes %s, the output reads %v", tab.doc, load, i+1, cell, vals[i])
				}
			}
		}
	}
	prose := strings.Join(strings.Fields(strings.Join(doc, " ")), " ")
	for _, q := range quotedProse {
		m := regexp.MustCompile(q.pattern).FindStringSubmatch(prose)
		if m == nil {
			t.Errorf("%s: EXPERIMENTS.md has no quote matching %q", q.name, q.pattern)
			continue
		}
		vals := q.measured(t, out)
		for i, cell := range m[1:] {
			if !quotes(t, cell, vals[i]) {
				t.Errorf("%s: EXPERIMENTS.md quotes %s, the output reads %v", q.name, cell, vals[i])
			}
		}
	}
}

// quotedProse pins the numbers EXPERIMENTS.md quotes in running text.
// pattern matches the quote in the document, whitespace-normalised, with
// one group per quoted number; measured reads the same numbers, in the
// same order, from experiments_full_output.txt.
var quotedProse = []struct {
	name     string
	pattern  string
	measured func(t *testing.T, out []string) []float64
}{
	{"hvariants nominal row", `at nominal: ([0-9.]+) / ([0-9.]+) / ([0-9.]+) / ([0-9.]+) for H=11 / per-link / tiered / H=6`,
		func(t *testing.T, out []string) []float64 {
			row := outputTable(t, out, "Protection-derivation variants (NSFNet)")["10"]
			return []float64{row[1], row[3], row[4], row[2]}
		}},
	{"signaling", `gracefully \(([0-9.]+) → ([0-9.]+) at 0.05 holding-times per hop\)`,
		func(t *testing.T, out []string) []float64 {
			rows := outputTable(t, out, "Two-phase call set-up latency study")
			return []float64{rows["0"][0], rows["0.05"][0]}
		}},
	{"focused overload", `uncontrolled absorbs the hot pair \(([0-9.]+) vs ([0-9.]+) blocking\)`,
		func(t *testing.T, out []string) []float64 {
			row := outputTable(t, out, "Focused overload on pair 0→11")["50"]
			return []float64{row[1], row[2]}
		}},
	{"random-mesh averages", `\(([0-9.]+) vs ([0-9.]+) network blocking on average\)`,
		func(t *testing.T, out []string) []float64 {
			// Columns: seed nodes links Erlangs single uncontrolled
			// controlled guarantee; the trailer line is not a mesh.
			var single, uncontrolled float64
			n := 0
			for _, f := range outputRows(t, out, "Generalization: random connected meshes") {
				if len(f) != 8 {
					continue
				}
				single += number(t, f[4])
				uncontrolled += number(t, f[5])
				n++
			}
			if n != 10 {
				t.Fatalf("random-mesh table: %d meshes, want 10", n)
			}
			return []float64{uncontrolled / float64(n), single / float64(n)}
		}},
	{"capacity multipliers", `load multipliers ([0-9.]+) vs ([0-9.]+) of nominal`,
		func(t *testing.T, out []string) []float64 {
			mult := map[string]float64{}
			for _, f := range outputRows(t, out, "Capacity headroom at 1% grade of service") {
				if len(f) == 3 {
					mult[f[0]] = number(t, f[1])
				}
			}
			return []float64{mult["controlled-alternate"], mult["single-path"]}
		}},
}

// quotes reports whether cell, a number as the document prints it, is v
// rounded to the cell's decimal places.
func quotes(t *testing.T, cell string, v float64) bool {
	t.Helper()
	places := 0
	if dot := strings.IndexByte(cell, '.'); dot >= 0 {
		places = len(cell) - dot - 1
	}
	return math.Abs(number(t, cell)-v) <= 0.5*math.Pow(10, -float64(places))+1e-12
}

func number(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// docTable returns the body rows of the first markdown table after the
// heading, as cells with bold markers and a trailing annotation ("10
// (nominal)") removed.
func docTable(t *testing.T, lines []string, heading string) [][]string {
	t.Helper()
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], heading) {
		i++
	}
	for i < len(lines) && !strings.HasPrefix(lines[i], "|") {
		i++
	}
	if i == len(lines) {
		t.Fatalf("EXPERIMENTS.md: no table under %q", heading)
	}
	var rows [][]string
	for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
		var row []string
		for _, cell := range strings.Split(strings.Trim(lines[i], "|"), "|") {
			cell = strings.TrimSpace(strings.ReplaceAll(cell, "**", ""))
			row = append(row, strings.Fields(cell)[0])
		}
		rows = append(rows, row)
	}
	return rows
}

// outputRows returns the fields of each line between the output table's
// title and the next blank line, skipping the title and the header.
func outputRows(t *testing.T, lines []string, title string) [][]string {
	t.Helper()
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], title) {
		i++
	}
	if i == len(lines) {
		t.Fatalf("experiments_full_output.txt: no table titled %q", title)
	}
	var rows [][]string
	for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
		rows = append(rows, strings.Fields(lines[i]))
	}
	return rows
}

// outputTable returns the rows under the output table's title, keyed by
// their first field, with each value's "± half-width" dropped.
func outputTable(t *testing.T, lines []string, title string) map[string][]float64 {
	t.Helper()
	rows := make(map[string][]float64)
	for _, f := range outputRows(t, lines, title) {
		var vals []float64
		for j := 1; j < len(f); j++ {
			if f[j] == "±" {
				j++
				continue
			}
			v, err := strconv.ParseFloat(f[j], 64)
			if err != nil {
				t.Fatalf("experiments_full_output.txt: %q: %v", strings.Join(f, " "), err)
			}
			vals = append(vals, v)
		}
		rows[f[0]] = vals
	}
	return rows
}
