// Command app is the fixture module's one binary.
package main

import (
	"errors"
	"fmt"

	"reachfix/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	var c lib.Counter
	lib.Apply(c.Inc)
	lib.ArchHook()
	fmt.Println(s.Area(), s, lib.Table, lib.Generic(1), lib.Box[int]{}.Get(), errors.Is(lib.Wrapped{}, nil))
}
