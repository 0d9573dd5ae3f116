package main

import (
	"strings"
	"testing"
)

// TestSelectFigures: -figures selects rows by name, "" selects every
// row, and a pattern that selects none (or does not compile) is an
// error, so benchjson never writes an empty baseline.
func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("")
	if err != nil || len(all) != 13 {
		t.Fatalf(`selectFigures("") = %d rows, %v; want all 13`, len(all), err)
	}
	sel, err := selectFigures("MP3D|Ocean")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range sel {
		got = append(got, f.Name)
	}
	want := "Figure5_MP3D Figure6_Ocean Figure5_MP3D_MemBound Figure6_Ocean_MemBound Figure11_MXS_MP3D_MemBound"
	if strings.Join(got, " ") != want {
		t.Errorf("MP3D|Ocean selects %v, want %s", got, want)
	}
	if _, err := selectFigures("Typo"); err == nil || !strings.Contains(err.Error(), "Typo") || !strings.Contains(err.Error(), "Figure4_Eqntott") {
		t.Errorf(`selectFigures("Typo") error %v does not name the pattern and the rows`, err)
	}
	if _, err := selectFigures("("); err == nil {
		t.Error(`selectFigures("(") compiled`)
	}
}
