// Package pool keeps the storage of finished simulations for the runs
// after them. A simulation fills a few megabytes of tag stores, predictor
// tables, record rings and uops and then drops them; an evaluation runs
// thousands of simulations of one machine, so handing that storage to the
// next run saves nearly every allocation the simulator makes.
//
// Storage is filed under the geometry it was built for (a cache hierarchy
// under its HierarchyConfig, a predictor unit under its branch.Config), so
// a run only ever draws storage shaped for its own configuration. Each
// piece is reset to its freshly built state before it is filed: a drawn
// piece must be indistinguishable from a new one, or results would depend
// on which runs came before.
package pool

import "sync"

// Keyed is a set of sync.Pools, one per key. Like a sync.Pool it may drop
// what it holds at any garbage collection; what stays behind is one empty
// sync.Pool per key ever used, a few hundred bytes per configuration a
// process has simulated. The zero value is ready to use, and a Keyed is
// safe for concurrent use.
type Keyed[K comparable, V any] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool
}

func (p *Keyed[K, V]) pool(k K) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.pools[k]
	if sp == nil {
		if p.pools == nil {
			p.pools = make(map[K]*sync.Pool)
		}
		sp = new(sync.Pool)
		p.pools[k] = sp
	}
	return sp
}

// Get returns a value filed under k and removes it from the pool; ok is
// false when there is none.
func (p *Keyed[K, V]) Get(k K) (v V, ok bool) {
	v, ok = p.pool(k).Get().(V)
	return v, ok
}

// Put files v under k for a later Get. The caller must not use v again.
func (p *Keyed[K, V]) Put(k K, v V) { p.pool(k).Put(v) }
