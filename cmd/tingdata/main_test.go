package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ting/internal/ting"
)

// TestTextReproducesPublishedDataset: the committed dataset is text, and
// "tingdata text" writes it back byte for byte from the matrix it decodes
// to — and from the binary document of that matrix, so converting a
// dataset to the binary form and back loses nothing the text form holds.
func TestTextReproducesPublishedDataset(t *testing.T) {
	want, err := os.ReadFile("../../data/allpairs.ting")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ting.DecodeMatrix(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeText(&got, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("text form of data/allpairs.ting differs from the file (%d vs %d bytes)", got.Len(), len(want))
	}

	path := filepath.Join(t.TempDir(), "allpairs.ting")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := writeText(&got, load(path)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("text form of the binary document differs from data/allpairs.ting")
	}
}

// TestTextPredictedZeroNegative: a text document with a predicted pair, a
// zero cell and a negative cell is written back as it was read.
func TestTextPredictedZeroNegative(t *testing.T) {
	doc := "tingmatrix n=4\na b c d\n" +
		"0 5 0 7\n" +
		"5 0 -1 9\n" +
		"0 -1 0 31.5\n" +
		"7 9 31.5 0\n" +
		"pred 2 3 186\n"
	m, err := ting.DecodeMatrix(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := writeText(&got, m); err != nil {
		t.Fatal(err)
	}
	if got.String() != doc {
		t.Fatalf("text form:\n%s\nwant:\n%s", got.String(), doc)
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
