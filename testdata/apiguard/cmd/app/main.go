// Command app is the planted module's only root.
package main

import (
	"fmt"

	"example.com/planted/internal/lib"
)

func main() {
	var c lib.Counter
	fmt.Println(new(lib.Live).Run(), c.Add(2), lib.Config{Name: "app"})
}
