package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ting/internal/ting"
)

// TestTextReproducesPublishedDataset: "tingdata text" of the published
// binary dataset is testdata/allpairs.txt, the text the dataset was first
// published as, byte for byte: converting it to the binary document lost
// nothing the text held. testdata/allpairs.ting is a byte copy of the
// dataset as published in data/allpairs.ting, which "experiments -fig 11"
// rewrites.
func TestTextReproducesPublishedDataset(t *testing.T) {
	want, err := os.ReadFile("testdata/allpairs.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeText(&got, load("testdata/allpairs.ting")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("text form of testdata/allpairs.ting differs from testdata/allpairs.txt (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestTextPredictedZeroNegative: a predicted pair, a zero cell and a
// negative cell each print as their cell holds them.
func TestTextPredictedZeroNegative(t *testing.T) {
	m, err := ting.NewMatrix([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		i, j int
		v    float64
	}{{0, 1, 5}, {0, 3, 7}, {1, 2, -1}, {1, 3, 9}} {
		m.SetAt(c.i, c.j, c.v)
	}
	if err := m.SetPredicted("c", "d", 31.5, 186.0/255); err != nil {
		t.Fatal(err)
	}
	want := "tingmatrix n=4\na b c d\n" +
		"0 5 0 7\n" +
		"5 0 -1 9\n" +
		"0 -1 0 31.5\n" +
		"7 9 31.5 0\n" +
		"pred 2 3 186\n"
	var got strings.Builder
	if err := writeText(&got, m); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("text form:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTextRefusesSpacedName: a name with a space would split the names
// line; the text form refuses it instead of writing a document that reads
// back differently. The binary form holds it.
func TestTextRefusesSpacedName(t *testing.T) {
	m, err := ting.NewMatrix([]string{"a b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeText(&strings.Builder{}, m); err == nil {
		t.Fatal("text form accepted a name with a space")
	}
}
