// Package hotpath exercises the hot-path allocation rules: step and tick
// are scheduled onto the fixture engine, so they are reachable from
// sim.Engine.Run through the call graph's dynamic-call edge and must obey
// the allocation-free contract.
package hotpath

import (
	"fmt"
	"sim"
)

// table is package-level state the hot callbacks touch.
var table = struct {
	ring []int
	byID map[int]int
	want bool
	out  string
}{}

// wire schedules the callbacks; wire itself stays cold (nothing schedules
// it), so its own closure creation is not charged.
func wire(e *sim.Engine) {
	e.At(5*sim.Millisecond, step)
	e.After(1*sim.Millisecond, tick)
	e.Run()
}

// step runs inside the event loop: every allocation source below is hot.
func step() {
	fmt.Println("tick") // want `fmt\.Println on the hot path allocates`

	table.ring = append(table.ring, 1) // want `append through "table" may grow on the hot path`

	for k := range table.byID { // want `map iteration on the hot path`
		_ = k
	}

	n := len(table.ring)
	box(n) // want `argument boxes a int into an interface on the hot path`
}

// tick demonstrates closure capture and the waiver etiquette.
func tick() {
	x := 0
	bump := func() { x++ } // want `closure captures "x" inside the hot path`
	bump()

	if len(table.ring) > 1<<20 {
		// The panic path never runs in steady state; the conservative
		// graph cannot know that, the waiver records it.
		panic(fmt.Sprintf("ring overflow: %d", len(table.ring))) //tcnlint:hotpath cold panic path
	}
	if table.want {
		render()
	}
}

// render runs only when a consumer asks for it: the cold directive stops
// the walk here, so neither its allocations nor layout's are flagged.
//
//tcnlint:cold runs only on a consumer's request
func render() {
	table.out = fmt.Sprintf("ring %d", len(table.ring))
	layout()
}

// layout is reached only through render.
func layout() {
	table.ring = append(table.ring, len(table.out))
}

// box takes an interface, forcing its callers to box concrete arguments.
func box(v any) { _ = v }

// scratch appends to a frame-local slice: the backing array stays with the
// frame, so it is not flagged.
func scratch() int {
	local := make([]int, 0, 8)
	local = append(local, 1)
	return len(local)
}

func init() {
	// Keep the cold helpers referenced.
	_ = scratch
}
