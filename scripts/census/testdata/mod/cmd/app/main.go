// Command app is the one root of the census test module.
package main

import "mini/internal/lib"

func main() {
	var s lib.Shape = lib.NewSquare(2)
	println(s.Area(), lib.Allowed == nil)
	lib.NewHandle().Use()
	lib.Open(lib.Config{Size: 2}).Touch([]byte("ab"))
	println(lib.Fault{}.Lossy())
}
