// Package lib holds one function per rule of the reachability walk;
// TestReachRules names the rule that reaches each, or that none does.
package lib

import "fmt"

type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func (s Square) Area() float64  { return s.side * s.side }
func (s Square) Side() float64  { return s.side }
func (s Square) String() string { return fmt.Sprint("square ", s.side) }

type Counter struct{ n int }

func (c *Counter) Inc()      { c.n++ }
func (c *Counter) Area() int { return c.n }
func (c *Counter) Len() int  { return c.n }
func Apply(f func())         { f() }

type Wrapped struct{ err error }

func (w Wrapped) Error() string { return "wrapped" }
func (w Wrapped) Unwrap() error { return w.err }

var Table = buildTable()

func buildTable() []int { return []int{1, 2} }
func init()             {}
func armOnly()          {}

type Box[T any] struct{ v T }

func (b Box[T]) Get() T    { return b.v }
func Generic[T any](v T) T { return v }
func testHelper() int      { return 1 }
func Dead()                {}
