package lint_test

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"cmpsim/internal/lint"
)

func sampleDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Pos:      token.Position{Filename: "/m/internal/cache/lru.go", Line: 42, Column: 7},
			Analyzer: "hotalloc",
			Message:  "append allocates on the hot path",
		},
		{
			Pos:      token.Position{Filename: "/m/internal/core/core.go", Line: 7, Column: 2},
			Analyzer: "neutral",
			Message:  "trace value X flows into simulated state",
		},
	}
}

// TestJSONFormatPinned locks the -json byte format: sorted records,
// two-space indent, module-relative paths, trailing newline, "[]" when
// clean.
func TestJSONFormatPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, "/m", sampleDiags()); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/cache/lru.go",
    "line": 42,
    "column": 7,
    "analyzer": "hotalloc",
    "message": "append allocates on the hot path"
  },
  {
    "file": "internal/core/core.go",
    "line": 7,
    "column": 2,
    "analyzer": "neutral",
    "message": "trace value X flows into simulated state"
  }
]
`
	if buf.String() != want {
		t.Errorf("JSON format drifted:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}

	buf.Reset()
	if err := lint.WriteJSON(&buf, "/m", nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("clean JSON output = %q, want %q", buf.String(), "[]\n")
	}
}

// TestSARIFFormatPinned locks the SARIF skeleton: version 2.1.0, one
// rule per analyzer (sorted, present even with zero findings), one
// result per finding with a module-relative artifact URI.
func TestSARIFFormatPinned(t *testing.T) {
	analyzers := []*lint.Analyzer{
		{Name: "neutral", Doc: "keep observability output-neutral"},
		{Name: "hotalloc", Doc: "forbid hot-path allocation"},
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, "/m", analyzers, sampleDiags()[:1]); err != nil {
		t.Fatal(err)
	}
	want := `{
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "simlint",
          "rules": [
            {
              "id": "hotalloc",
              "shortDescription": {
                "text": "forbid hot-path allocation"
              }
            },
            {
              "id": "neutral",
              "shortDescription": {
                "text": "keep observability output-neutral"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "hotalloc",
          "level": "error",
          "message": {
            "text": "append allocates on the hot path"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "internal/cache/lru.go"
                },
                "region": {
                  "startLine": 42,
                  "startColumn": 7
                }
              }
            }
          ]
        }
      ]
    }
  ]
}
`
	if buf.String() != want {
		t.Errorf("SARIF format drifted:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestBaselineRoundTrip covers the suppression ledger: building from
// findings, count-bounded filtering, and save/load byte stability.
func TestBaselineRoundTrip(t *testing.T) {
	diags := sampleDiags()
	b := lint.BaselineOf("/m", diags)
	if len(b.Entries) != 2 {
		t.Fatalf("BaselineOf produced %d entries, want 2", len(b.Entries))
	}

	// A baseline of everything filters everything.
	if kept := b.Filter("/m", diags); len(kept) != 0 {
		t.Errorf("full baseline kept %d findings, want 0", len(kept))
	}

	// A fresh finding (same file+analyzer, new message) survives.
	extra := lint.Diagnostic{
		Pos:      token.Position{Filename: "/m/internal/cache/lru.go", Line: 50, Column: 1},
		Analyzer: "hotalloc",
		Message:  "make allocates on the hot path",
	}
	if kept := b.Filter("/m", append(diags, extra)); len(kept) != 1 || kept[0].Message != extra.Message {
		t.Errorf("new finding did not survive the baseline: kept %v", kept)
	}

	// Counts bound absorption: two findings with the same key consume
	// one entry of count 1 plus one survivor.
	dup := diags[0]
	dup.Pos.Line = 99
	if kept := b.Filter("/m", append(diags, dup)); len(kept) != 1 {
		t.Errorf("count-1 entry absorbed %d duplicates, want exactly 1 survivor", 3-len(kept)-1)
	}

	// Save/load round-trips and the file is byte-stable.
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := lint.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept := loaded.Filter("/m", diags); len(kept) != 0 {
		t.Errorf("loaded baseline kept %d findings, want 0", len(kept))
	}
	if err := loaded.Save(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("baseline regeneration is not byte-stable")
	}

	// A missing file is an empty baseline, not an error.
	empty, err := lint.LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if kept := empty.Filter("/m", diags); len(kept) != len(diags) {
		t.Errorf("empty baseline filtered findings: kept %d of %d", len(kept), len(diags))
	}
}
