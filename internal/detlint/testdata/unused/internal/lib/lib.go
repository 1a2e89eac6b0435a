// Package lib is the unused analyzer's fixture: cmd/app and the nested
// module use some of its identifiers, lib_test.go uses others, which
// does not count. Each line the analyzer must report carries a want
// comment; the stale hatch's finding is checked by TestUnusedFixture.
package lib

// Used is called by cmd/app.
func Used() int { return Answer }

// Unused is called only by lib_test.go.
func Unused() {} // want "func Unused is not referenced by any non-test code"

// Recursive calls only itself, which does not count.
func Recursive(n int) int { // want "func Recursive"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Kind is named nowhere.
type Kind int // want "type Kind"

// Answer is read by Used.
const Answer = 42

// Limit is named nowhere.
const Limit = 7 // want "const Limit"

// Table is read only by lib_test.go.
var Table = map[string]int{} // want "var Table"

// Thing is used by cmd/app.
type Thing struct{ n int }

// String makes Thing a fmt.Stringer, so fmt may call it.
func (t Thing) String() string { return "thing" }

// Helper is called by nothing.
func (t Thing) Helper() int { return t.n } // want "method Thing.Helper"

// Shape is an interface declared in the tree.
type Shape interface{ Area() float64 }

type square struct{}

// Area satisfies Shape: cmd/app calls it through the interface.
func (square) Area() float64 { return 1 }

// NewSquare is called by cmd/app.
func NewSquare() Shape { return square{} }

// Nested is called only by the nested module.
func Nested() {}

// Kept is read only by lib_test.go, behind a hatch.
//
//detlint:allow unused -- fixture: a test's oracle
func Kept() {}

// Stale is called by cmd/app, so its hatch suppresses nothing.
//
//detlint:allow unused -- fixture: suppresses nothing
func Stale() {}
