package calib

import (
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// The kernel must not move when the program does: its file may import
// the standard library only, never a package of the module under test.
func TestKernelImportsNoCarePackage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if path == "care" || strings.HasPrefix(path, "care/") {
			t.Errorf("calib.go imports %q; the kernel must not depend on the program", path)
		}
	}
}

func TestMeasureReturnsSortedUnitTimes(t *testing.T) {
	k := New()
	d := k.Measure(2, 3)
	if len(d) != 6 {
		t.Fatalf("got %d unit times, want 6", len(d))
	}
	for i := range d {
		if d[i] <= 0 || (i > 0 && d[i] < d[i-1]) {
			t.Fatalf("unit times not positive and sorted: %v", d)
		}
	}
}
