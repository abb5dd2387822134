package main

import (
	"fmt"

	"planted/internal/p"
)

func main() {
	v, pair := p.New()
	if r, ok := v.(interface{ Remaining() (int, bool) }); ok {
		fmt.Println(r.Remaining())
	}
	var t p.Tally
	t.Count()
	fmt.Println(pair, p.Col("c"), p.Touch("t", "0"), p.NewOptions().Level())
}
