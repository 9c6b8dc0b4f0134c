package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzLine matches one Makefile fuzz invocation: the target name after
// -fuzz= (optionally quoted and anchored with make's escaped $$) and the
// package directory at the end of the line.
var fuzzLine = regexp.MustCompile(`-fuzz='?(\w+)(?:\$\$)?'?\s.*\s\./(\S+)\s*$`)

// TestMakefileFuzzTargetsExist: every `-fuzz=<Name> … ./<pkg>` line of the
// Makefile names a fuzz target that some _test.go file in <pkg> defines.
// Without it a deleted or renamed target would go unnoticed until the
// fuzz-smoke job ran it.
func TestMakefileFuzzTargetsExist(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, "-fuzz=") {
			continue
		}
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("Makefile:%d: unparseable fuzz line %q", i+1, line)
			continue
		}
		found++
		name, pkg := m[1], m[2]
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "func "+name+"(") {
				defined = true
				break
			}
		}
		if !defined {
			t.Errorf("Makefile:%d: no _test.go file in ./%s defines func %s(", i+1, pkg, name)
		}
	}
	if found == 0 {
		t.Fatal("Makefile has no -fuzz= lines; the pattern no longer matches")
	}
}
