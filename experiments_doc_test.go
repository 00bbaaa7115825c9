package altroute_test

import (
	"math"
	"os"
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
// tables above against experiments_full_output.txt (what `altsim all`
// prints), rounded to the places the document quotes.
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
				q, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Errorf("%s: load %s: cell %q: %v", tab.doc, load, cell, err)
					continue
				}
				places := 0
				if dot := strings.IndexByte(cell, '.'); dot >= 0 {
					places = len(cell) - dot - 1
				}
				if math.Abs(q-vals[i]) > 0.5*math.Pow(10, -float64(places))+1e-12 {
					t.Errorf("%s: load %s column %d quotes %s, the output reads %v", tab.doc, load, i+1, cell, vals[i])
				}
			}
		}
	}
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

// outputTable returns the rows under the output table's title, keyed by
// their first field, with each value's "± half-width" dropped.
func outputTable(t *testing.T, lines []string, title string) map[string][]float64 {
	t.Helper()
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], title) {
		i++
	}
	if i == len(lines) {
		t.Fatalf("experiments_full_output.txt: no table titled %q", title)
	}
	rows := make(map[string][]float64)
	for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
		f := strings.Fields(lines[i])
		var vals []float64
		for j := 1; j < len(f); j++ {
			if f[j] == "±" {
				j++
				continue
			}
			v, err := strconv.ParseFloat(f[j], 64)
			if err != nil {
				t.Fatalf("experiments_full_output.txt: %q: %v", lines[i], err)
			}
			vals = append(vals, v)
		}
		rows[f[0]] = vals
	}
	return rows
}
