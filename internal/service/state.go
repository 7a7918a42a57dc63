// Package service is the serving layer of the repository: a goroutine-safe
// admission-control state, an LRU cache for analysis results, request
// metrics, a multi-tenant network registry, and the HTTP/JSON handlers
// that delayd (cmd/delayd) mounts. The command-line tools reuse the same
// State so that CLI and daemon drive one admission implementation.
package service

import (
	"encoding/json"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// engine names the embedded admission engine without exporting a field.
type engine = admission.Engine

// State is the live admission fabric shared by concurrent HTTP handlers
// and the CLIs: the admission engine, whose methods it carries, plus the
// fabric's server-name tables. The engine's commit domains are the
// fabric's independent server-sharing components, so disjoint workloads
// commit without contending; every test analyzes an immutable snapshot
// OUTSIDE any lock, and writes commit with a version check on the
// components they touched, retrying on conflict.
type State struct {
	*engine
	index map[string]int    // server name -> index, immutable
	hops  []json.RawMessage // netspec.HopNames(servers), immutable
}

// NewState builds an admission state over the given fabric.
func NewState(servers []server.Server, analyzer analysis.Analyzer) (*State, error) {
	eng, err := admission.NewEngine(servers, analyzer)
	if err != nil {
		return nil, err
	}
	index, err := netspec.ServerIndex(servers)
	if err != nil {
		return nil, err
	}
	return &State{engine: eng, index: index, hops: netspec.HopNames(servers)}, nil
}

// Engine returns the admission engine the state serves.
func (s *State) Engine() *admission.Engine { return s.engine }

// ServerIndex returns the fabric's server-name index, built once. The map
// is shared; callers must not modify it.
func (s *State) ServerIndex() map[string]int { return s.index }

// ConnectionSpecs converts connections of this fabric to their
// serializable form, naming hops from a table built once per State.
func (s *State) ConnectionSpecs(conns []topo.Connection) []netspec.ConnectionSpec {
	out := make([]netspec.ConnectionSpec, len(conns))
	for i, c := range conns {
		out[i] = netspec.ConnectionToSpecHops(c, s.hops)
	}
	return out
}
