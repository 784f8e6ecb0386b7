package loggpsim_test

// End-to-end check of the example programs: build each one, run it and
// compare its standard output byte for byte with
// examples/testdata/<name>.txt. Every example is deterministic, so a
// moved byte is a moved prediction (or a changed report format).
// Regenerate the files with
//
//	go test -run TestExamplesMatchGolden . -update

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite examples/testdata from the current code")

// exampleNames lists the programs under examples/, one per directory.
var exampleNames = []string{
	"broadcast", "cannon", "gaussian", "patterns", "quickstart", "stencil", "virtual",
}

func TestExamplesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example binaries")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != len(exampleNames) {
		t.Fatalf("examples/ holds %d programs, the test lists %d: %v", len(dirs), len(exampleNames), dirs)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range exampleNames {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			golden := filepath.Join("examples", "testdata", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (generate it with -update)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("%s output differs from %s:\n--- got\n%s--- want\n%s", name, golden, stdout.Bytes(), want)
			}
		})
	}
}
