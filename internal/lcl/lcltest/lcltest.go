// Package lcltest holds helpers for the tests of packages that decode
// lcl problems.
package lcltest

import (
	"maps"
	"slices"

	"repro/internal/lcl"
)

// SameProblem reports whether a and b define the same problem, treating
// nil and empty slices as equal. Two nil problems are the same.
func SameProblem(a, b *lcl.Problem) bool {
	if a == nil || b == nil {
		return a == b
	}
	sameSets := func(x, y []lcl.Multiset) bool {
		return slices.EqualFunc(x, y, func(m, n lcl.Multiset) bool { return slices.Equal(m, n) })
	}
	return a.Name == b.Name &&
		slices.Equal(a.InNames, b.InNames) && slices.Equal(a.OutNames, b.OutNames) &&
		maps.EqualFunc(a.Node, b.Node, sameSets) && sameSets(a.Edge, b.Edge) &&
		slices.EqualFunc(a.G, b.G, func(x, y []int) bool { return slices.Equal(x, y) })
}
