package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Thing{}, lib.NewSquare().Area())
	lib.Stale()
}
