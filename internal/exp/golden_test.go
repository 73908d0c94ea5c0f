package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenIDs are the experiments that evaluate a model variant (an ablation,
// another MLP model, a fixed branch miss rate, combined evaluation) or read
// a Pareto front: the outputs a change to the predictor cache or to the
// Pareto algorithm could move.
var goldenIDs = []string{
	"fig3.6", "fig3.7", "fig4.3", "fig4.9", "fig6.4",
	"fig6.15", "fig6.16", "fig6.17", "fig6.18", "tab6.2",
	"fig7.4", "fig7.7", "fig7.9", "tab7.1",
}

// goldenOutput runs goldenIDs on five workloads at 20,000 µops, each
// experiment's output under a "### id" line.
func goldenOutput(t *testing.T) []byte {
	t.Helper()
	s := NewSuite(20_000)
	s.Workloads = []string{"mcf", "gcc", "soplex", "xalancbmk", "libquantum"}
	var buf bytes.Buffer
	for _, id := range goldenIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		fmt.Fprintf(&buf, "### %s\n", id)
		e.Run(s, &buf)
	}
	return buf.Bytes()
}

// TestFiguresGolden pins those outputs byte for byte against
// testdata/figures.golden.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments")
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenOutput(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
