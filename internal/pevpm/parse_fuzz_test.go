package pevpm

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse holds the model parser to its contract on any input: Parse
// never panics, a rejected input fails with the same error text when
// parsed again, and an accepted program validates again and describes
// every directive Walk reaches. The corpus starts from every shipped
// model: the mpilint fixtures and the Jacobi example.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../mpilint/testdata/*.pvm")
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, "../../examples/jacobi/jacobi.pvm")
	if len(files) < 2 {
		f.Fatalf("found %d seed models", len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(figure5)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			_, again := Parse(src)
			if again == nil || again.Error() != err.Error() {
				t.Fatalf("parsed twice, the input failed with %q, then %v", err, again)
			}
			return
		}
		for i := 0; i < 2; i++ {
			if err := prog.Validate(); err != nil {
				t.Fatalf("accepted program fails Validate: %v", err)
			}
		}
		Walk(prog.Body, func(n Node) bool {
			_ = Describe(n)
			return true
		})
	})
}
