// Package root poses as the module root package: its exported functions
// and methods are the public API and therefore entry points.
package root

import lib "prosper/internal/fixdead"

// System re-exports an internal type through a field.
type System struct {
	Inner *lib.Engine
}

// Run is exported API.
func (s *System) Run() { lib.Used(s.Inner) }

// New is exported API.
func New() *System { return &System{Inner: &lib.Engine{}} }

func helper() {} // want:deadcode "root.helper is unreachable"
