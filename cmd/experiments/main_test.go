package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stubFigures swaps the figure table for entries that record the names
// they run under, for the rest of the test.
func stubFigures(t *testing.T) *[]string {
	var ran []string
	saved := figures
	t.Cleanup(func() { figures = saved })
	figures = nil
	for _, f := range saved {
		figures = append(figures, figure{f.name, func(*runner) error {
			ran = append(ran, f.name)
			return nil
		}})
	}
	return &ran
}

// TestRunDispatchesByTable: each table name runs its own entry, "all" runs
// every entry once in table order, and a list runs in its own order.
func TestRunDispatchesByTable(t *testing.T) {
	names := figureNames()
	ran := stubFigures(t)
	r := &runner{}
	for _, name := range names {
		*ran = nil
		if err := r.run(name); err != nil || !slices.Equal(*ran, []string{name}) {
			t.Errorf("run(%q) ran %q, %v", name, *ran, err)
		}
	}
	*ran = nil
	if err := r.run("all"); err != nil || !slices.Equal(*ran, names) {
		t.Errorf("run(all) ran %q, %v; want %q", *ran, err, names)
	}
	*ran = nil
	if err := r.run("12, 3"); err != nil || !slices.Equal(*ran, []string{"12", "3"}) {
		t.Errorf(`run("12, 3") ran %q, %v`, *ran, err)
	}
}

func TestRunRefusesUnknownFigure(t *testing.T) {
	ran := stubFigures(t)
	err := (&runner{}).run("3,nope")
	if err == nil || !strings.Contains(err.Error(), `unknown figure "nope"`) {
		t.Errorf("run(3,nope) = %v, want an unknown figure error", err)
	}
	if !slices.Equal(*ran, []string{"3"}) {
		t.Errorf("run(3,nope) ran %q, want the figures before the unknown one", *ran)
	}
}

// TestFigUsageListsTable: the -fig usage names exactly the table's figures,
// in table order, then "all".
func TestFigUsageListsTable(t *testing.T) {
	usage := flag.Lookup("fig").Usage
	_, list, ok := strings.Cut(usage, ": ")
	list, all := strings.CutSuffix(list, ", or all")
	if !ok || !all {
		t.Fatalf("-fig usage %q does not read \"…: <names>, or all\"", usage)
	}
	if got := strings.Split(list, ", "); !slices.Equal(got, figureNames()) {
		t.Errorf("-fig usage lists %q, want %q", got, figureNames())
	}
}

// TestQuickFiguresMatchGolden: a -quick run of the deterministic Figs 3 and
// 10 writes .dat files that hash to their lines in scripts/quick42.sha256.
func TestQuickFiguresMatchGolden(t *testing.T) {
	f, err := os.Open("../../scripts/quick42.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			golden[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	r := &runner{out: t.TempDir(), quick: true, seed: 42}
	if err := r.run("3,10"); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(r.out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range written {
		names = append(names, e.Name())
		data, err := os.ReadFile(filepath.Join(r.out, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if want, ok := golden[e.Name()]; !ok || hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, golden %q", e.Name(), sum, want)
		}
	}
	if want := []string{"fig10_boxes.dat", "fig3_cdf.dat"}; !slices.Equal(names, want) {
		t.Errorf("-fig 3,10 wrote %q, want %q", names, want)
	}
}
