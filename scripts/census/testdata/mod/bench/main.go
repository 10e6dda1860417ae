// Command bench is the module's benchmark: what it reaches is kept alive,
// and what only it reaches or sets is printed as bench only.
package main

import "mini/internal/lib"

func main() {
	println(lib.BenchOnly(), lib.Tuning{Depth: 1}.Depth)
}
