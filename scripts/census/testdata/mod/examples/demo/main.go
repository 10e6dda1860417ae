// Command demo is an example: what only it reaches is still flagged.
package main

import "mini/internal/lib"

func main() {
	println(lib.NewSquare(3).Area(), lib.DemoOnly())
}
