// Package lib is a prosper-lint fixture for the deadcode pass. The root,
// cmd and bench fixtures call into it; everything they cannot reach is
// a finding.
package lib

import "prosper/internal/sim"

// table's initializer references viaVar: package-level var initializers
// run at package init, so viaVar is live.
var table = []func(){viaVar}

func viaVar() {}

func init() { initOnly() }

func initOnly() {}

// Port has one method live code calls and one it never does.
type Port interface {
	Access()
	Flush() // want:deadcode "interface method Port.Flush is never called"
}

type dev struct{}

func (*dev) Access() {}

func (*dev) Flush() {} // want:deadcode "(*internal/fixdead.dev).Flush is unreachable"

// T implements fmt.Stringer: the standard library calls String, so it is
// live although nothing in the module calls it.
type T struct{}

func (T) String() string { return "t" }

func (*T) Dead() {} // want:deadcode "(*internal/fixdead.T).Dead is unreachable"

// Engine is exposed by the root fixture through an exported field. Only
// the methods the root package itself calls are live: the field does not
// make Engine's method set API.
type Engine struct{}

func (*Engine) Step() {}

func (*Engine) Peek() {} // want:deadcode "(*internal/fixdead.Engine).Peek is unreachable"

// Used is what the root package's exported API calls.
func Used(e *Engine) {
	var p Port = &dev{}
	p.Access()
	e.Step()
	cb := refOnly
	cb()
	_ = sim.Thunk(sim.CompOther, onDone)
	for _, f := range table {
		f()
	}
}

func refOnly() {}

func onDone() {}

// MainOnly is reached from the cmd fixture's main.
func MainOnly() {}

// BenchOnly is reached only from the root-only bench fixture.
func BenchOnly() {}

func Unused() { unusedCallee() } // want:deadcode "internal/fixdead.Unused is unreachable"

func unusedCallee() {} // want:deadcode "internal/fixdead.unusedCallee is unreachable"

// kept is unreached but suppressed, so what only it calls stays live.
//
//prosperlint:ignore deadcode fixture: a suppressed function keeps its callees
func kept() { keptCallee() }

func keptCallee() {}
