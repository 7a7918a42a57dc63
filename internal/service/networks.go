package service

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultNetworkID names the network a Config built from a bare State
// serves: a single-tenant deployment is one network under this id.
const DefaultNetworkID = "default"

// Network is one tenant fabric: an admission state, its own analyze
// cache, and its own request metrics. Tenants never share mutable state,
// so load on one network cannot perturb another's bounds, cache hit
// ratio, or metric series.
type Network struct {
	id      string
	state   *State
	cache   *Cache
	metrics *Metrics
}

// ID returns the network's registry id.
func (n *Network) ID() string { return n.id }

// State returns the network's admission state.
func (n *Network) State() *State { return n.state }

// Cache returns the network's analyze cache.
func (n *Network) Cache() *Cache { return n.cache }

// Metrics returns the network's request metrics.
func (n *Network) Metrics() *Metrics { return n.metrics }

// Registry maps network ids to independent Network instances. The first
// network added becomes the default: the one global routes see and the
// removed spellings' successor links name. Lookups are lock-free for the
// common path (read lock); registration normally happens at startup but is
// safe at any time.
type Registry struct {
	mu        sync.RWMutex
	nets      map[string]*Network
	order     []string
	defaultID string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{nets: make(map[string]*Network)}
}

// validNetworkID reports whether an id is usable in a URL path segment
// without escaping: 1-64 characters from [A-Za-z0-9._-].
func validNetworkID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Add registers a network under id. The cache may be nil, in which case
// the network gets its own NewCache(DefaultCacheSize). The first network
// added becomes the registry default.
func (r *Registry) Add(id string, state *State, cache *Cache) (*Network, error) {
	if !validNetworkID(id) {
		return nil, fmt.Errorf("service: invalid network id %q (want 1-64 chars of [A-Za-z0-9._-])", id)
	}
	if state == nil {
		return nil, fmt.Errorf("service: network %q has no state", id)
	}
	if cache == nil {
		cache = NewCache(DefaultCacheSize)
	}
	nw := &Network{id: id, state: state, cache: cache, metrics: NewMetrics()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.nets[id]; dup {
		return nil, fmt.Errorf("service: duplicate network id %q", id)
	}
	r.nets[id] = nw
	r.order = append(r.order, id)
	if r.defaultID == "" {
		r.defaultID = id
	}
	return nw, nil
}

// Get returns the network registered under id.
func (r *Registry) Get(id string) (*Network, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nw, ok := r.nets[id]
	return nw, ok
}

// Default returns the default network (the first one added), or nil for
// an empty registry.
func (r *Registry) Default() *Network {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nets[r.defaultID]
}

// DefaultID returns the default network's id ("" for an empty registry).
func (r *Registry) DefaultID() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultID
}

// IDs returns every registered network id in sorted order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, len(r.order))
	copy(ids, r.order)
	sort.Strings(ids)
	return ids
}

// Len returns the number of registered networks.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nets)
}
