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
