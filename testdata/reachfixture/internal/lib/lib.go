// Package lib holds one exported identifier of each kind the reachability
// test tells apart.
package lib

// Used has a product caller.
func Used() int { return 1 }

// OnlyTested has no caller outside lib_test.go.
func OnlyTested() int { return 2 }

// Allowed has a product caller and an allowlist entry, which is stale.
func Allowed() int { return 3 }

// T is printed by product code.
type T struct{}

// String satisfies fmt.Stringer, which fmt calls; no product code names it.
func (T) String() string { return "t" }

// Self is mentioned only by its own method's receiver, which is not a
// reference.
type Self struct{}

// String satisfies fmt.Stringer, like T's.
func (s Self) String() string { return "self" }

// total sums floats in map order, so its last bits depend on the order:
// the map-order gate flags it.
func total(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// count only counts, and is allowlisted.
func count(m map[string]bool) int {
	n := 0
	for range m {
		n++
	}
	return n
}
