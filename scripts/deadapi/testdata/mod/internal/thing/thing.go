// Package thing holds one of each case the census judges.
package thing

import "fmt"

// Thing is aliased by the root package.
type Thing struct{ n int }

// New is used by the root package.
func New() *Thing { return &Thing{n: helper()} }

// Size is reached through the root package's alias.
func (t *Thing) Size() int { return t.n }

// Dead has no caller but its test: delete.
func Dead() int { return 1 }

// Local is called only inside this package: unexport.
func Local() int { return 2 }

// Oracle has no caller, and the allowlist names it.
func Oracle() int { return 3 }

// Recurse calls only itself, which is no use.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

func helper() int { return Local() }

// Kind's String satisfies fmt.Stringer.
type Kind int

func (k Kind) String() string { return fmt.Sprint(int(k)) }

// Err's Error satisfies error.
type Err struct{}

func (e *Err) Error() string { return "err" }

// Unused is a constant nothing reads, tests included: delete.
const Unused = 4

// Tested is read only by a test, which counts for a constant.
const Tested = 5
