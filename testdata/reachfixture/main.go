// Command fixture is the product side of the reachability test's fixture
// module.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Allowed(), lib.T{})
}
