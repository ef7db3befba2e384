// Multilevel partitioning example: the paper's future-work application
// (§VII) — use the MIS-2 aggregation as the coarsening step of a
// multilevel graph bisection, and compare against classic heavy-edge
// matching coarsening on edge cut and balance. Then scale the same
// machinery to a 512-way partition by recursive bisection and
// fingerprint the result, so two runs can be compared by one number.
package main

import (
	"fmt"
	"log"
	"time"

	"mis2go"
)

func main() {
	g := mis2go.Laplace3D(24, 24, 24)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, g.NumEdges()/2)

	for _, policy := range []struct {
		name string
		p    mis2go.PartitionOptions
	}{
		{name: "MIS-2 coarsening", p: mis2go.PartitionOptions{Policy: mis2go.PartitionMIS2}},
		{name: "HEM coarsening", p: mis2go.PartitionOptions{Policy: mis2go.PartitionHEM}},
	} {
		start := time.Now()
		res, err := mis2go.Bisect(g, policy.p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s edge cut %5d   balance %.3f   %d levels   %v\n",
			policy.name, res.EdgeCut, res.Balance, res.Levels,
			time.Since(start).Round(time.Millisecond))
	}

	// k-way by recursive bisection. Part ids are int32, so k is not
	// limited to 256; 512 parts of a 13824-vertex graph is ~27 vertices
	// each. The fingerprint is a deterministic function of (k, part) —
	// two processes partitioning the same graph get the same key.
	for _, k := range []int{16, 512} {
		start := time.Now()
		res, err := mis2go.PartitionKWay(g, k, mis2go.PartitionOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d-way            edge cut %5d   balance %.3f   fingerprint %016x   %v\n",
			k, res.EdgeCut, res.Balance, res.Fingerprint(),
			time.Since(start).Round(time.Millisecond))
	}
}
