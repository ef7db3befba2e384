// Validity checking for distance-2 maximal independent sets.
package mis

import (
	"fmt"

	"mis2go/internal/graph"
)

// CheckMIS2 verifies that set is a valid distance-2 maximal independent
// set of g: no two members within distance 2 (independence) and every
// vertex within distance 2 of a member (maximality). Returns nil when
// valid. O(V + E·maxdeg) time.
func CheckMIS2(g *graph.CSR, set []int32) error {
	in := make([]bool, g.N)
	for _, v := range set {
		if v < 0 || int(v) >= g.N {
			return fmt.Errorf("mis: set member %d out of range", v)
		}
		if in[v] {
			return fmt.Errorf("mis: duplicate set member %d", v)
		}
		in[v] = true
	}
	// Independence: for each member v, no member at distance 1 or 2.
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if in[w] {
				return fmt.Errorf("mis: members %d and %d are adjacent", v, w)
			}
			for _, x := range g.Neighbors(w) {
				if x != v && in[x] {
					return fmt.Errorf("mis: members %d and %d at distance 2 via %d", v, x, w)
				}
			}
		}
	}
	// Maximality: every vertex is within distance 2 of a member.
	// Two relaxation sweeps from members cover radius 2.
	covered := make([]bool, g.N)
	for _, v := range set {
		covered[v] = true
	}
	for sweep := 0; sweep < 2; sweep++ {
		next := make([]bool, g.N)
		copy(next, covered)
		for v := int32(0); int(v) < g.N; v++ {
			if covered[v] {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if covered[w] {
					next[v] = true
					break
				}
			}
		}
		covered = next
	}
	for v := 0; v < g.N; v++ {
		if !covered[v] {
			return fmt.Errorf("mis: vertex %d is not within distance 2 of any member", v)
		}
	}
	return nil
}

// CheckMISK verifies that set is a valid distance-k maximal independent
// set of g, for any k >= 1, by bounded BFS. O(|set| * (V+E)) time —
// intended for tests and validation, not production-sized graphs.
func CheckMISK(g *graph.CSR, set []int32, k int) error {
	if k < 1 {
		return fmt.Errorf("mis: invalid distance %d", k)
	}
	in := make([]bool, g.N)
	for _, v := range set {
		if v < 0 || int(v) >= g.N {
			return fmt.Errorf("mis: set member %d out of range", v)
		}
		if in[v] {
			return fmt.Errorf("mis: duplicate set member %d", v)
		}
		in[v] = true
	}
	// dist[v] = distance to the nearest set member, capped at k+1.
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = k + 1
	}
	queue := make([]int32, 0, len(set))
	for _, v := range set {
		dist[v] = 0
		queue = append(queue, v)
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if dist[v] == k {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dist[v]+1 < dist[w] {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	// Independence: a member with another member within distance <= k
	// would have been relaxed below its own 0... members always have
	// dist 0, so check explicitly: BFS from each member must not reach
	// another member within k steps.
	for _, s := range set {
		if err := bfsNoMemberWithin(g, s, in, k); err != nil {
			return err
		}
	}
	// Maximality: every vertex within distance k of a member.
	for v := 0; v < g.N; v++ {
		if dist[v] > k {
			return fmt.Errorf("mis: vertex %d farther than %d from every member", v, k)
		}
	}
	return nil
}

// bfsNoMemberWithin checks no other set member lies within distance k of s.
func bfsNoMemberWithin(g *graph.CSR, s int32, in []bool, k int) error {
	dist := map[int32]int{s: 0}
	queue := []int32{s}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if dist[v] == k {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if _, seen := dist[w]; seen {
				continue
			}
			dist[w] = dist[v] + 1
			if in[w] {
				return fmt.Errorf("mis: members %d and %d within distance %d", s, w, dist[w])
			}
			queue = append(queue, w)
		}
	}
	return nil
}
