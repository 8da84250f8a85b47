// Package lib holds what the fixture command reaches and what it does not.
package lib

import "fmt"

// Shape is called through an interface.
type Shape interface {
	Area() int
	sealed()
}

// Square is the Shape the command converts.
type Square struct{}

// Area is reached through the Shape interface.
func (Square) Area() int { return 4 }

// sealed is an empty marker method: the linker drops it, and it is no
// finding.
func (Square) sealed() {}

// Counter is used through a method value.
type Counter struct{ n int }

// Next is reached as a method value.
func (c Counter) Next() int { return c.n + 1 }

// FromVar is reached from a package-variable initialiser.
func FromVar() int { return 2 }

// FromInit is reached from an init function.
func FromInit() { counter++ }

var counter int

// Box is a generic type.
type Box[T any] struct{ v T }

// Put is a method on a generic type.
func (b *Box[T]) Put(v T) { b.v = v }

// Get is a method on a generic type.
func (b *Box[T]) Get() T { return b.v }

// Color is printed by fmt.
type Color int

// String is reached from fmt, through fmt.Stringer.
func (c Color) String() string { return fmt.Sprint("color ", int(c)) }

// OnlyTested is called by the package's test alone.
func OnlyTested() int { return 7 } // want "reachable: lib.OnlyTested is linked by no binary"

// ExemptTested is called by the package's test alone, and says why it stays.
//
//stat4:exempt:reachable a reference the package's tests compare against
func ExemptTested() int { return 8 }
