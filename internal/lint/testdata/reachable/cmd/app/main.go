// Command app reaches package lib every way the linker must see.
package main

import (
	"fmt"

	"reach/lib"
)

// fromVar is a package-variable initialiser.
var fromVar = lib.FromVar()

func init() { lib.FromInit() }

func main() {
	var s lib.Shape = lib.Square{}
	next := lib.Counter{}.Next // a method value
	var b lib.Box[int]
	b.Put(3)
	fmt.Println(s.Area(), next(), fromVar, b.Get(), lib.Color(1)) // Color's String through fmt
}
