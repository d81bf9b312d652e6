package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFiguresMatchCommitted regenerates figures 5, 6 and 7 at the scale
// vppb-bench uses by default and byte-compares them with the SVGs
// committed under results/. The drawings do not depend on the number of
// reference runs, so one run keeps the test short.
func TestFiguresMatchCommitted(t *testing.T) {
	opts := Options{Scale: 1, Runs: 1}
	fig5, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	case5, err := Case5(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"fig5.svg": fig5.SVG,
		"fig6.svg": case5.NaiveSVG,
		"fig7.svg": case5.ImprovedSVG,
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from results/%s (%d bytes, committed %d)", name, name, len(got), len(want))
		}
	}
}
