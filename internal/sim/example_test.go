package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Example models a two-stage pipeline: a 10 µs producer feeding a bounded
// queue drained by a 25 µs consumer — the consumer's service time dominates.
func Example() {
	e := sim.NewEngine()
	q := sim.NewQueue(e, "stage", 2)

	// Producer: three items, 10 µs apart.
	for i := 0; i < 3; i++ {
		e.After(sim.Duration(i*10)*sim.Microsecond, func() {
			q.Put(nil)
		})
	}
	// Consumer: 25 µs of service per item, in arrival order.
	server := sim.NewResource(e, "server", 1)
	var consume func()
	consumed := 0
	consume = func() {
		q.Get(func() {
			server.Hold(25*sim.Microsecond, func() {
				fmt.Printf("item %d done at %v\n", consumed, sim.Duration(e.Now()))
				if consumed++; consumed < 3 {
					consume()
				}
			})
		})
	}
	consume()
	e.Run()
	// Output:
	// item 0 done at 25.000us
	// item 1 done at 50.000us
	// item 2 done at 75.000us
}

// ExampleLink shows bandwidth-limited FIFO transfers: two 16 KB pages over
// an 800 MB/s flash channel bus serialize at 20.48 µs each.
func ExampleLink() {
	e := sim.NewEngine()
	bus := sim.NewLink(e, "channel", 800e6)
	for i := 0; i < 2; i++ {
		i := i
		bus.Transfer(16384, func() {
			fmt.Printf("page %d delivered at %v\n", i, sim.Duration(e.Now()))
		})
	}
	e.Run()
	// Output:
	// page 0 delivered at 20.480us
	// page 1 delivered at 40.960us
}
