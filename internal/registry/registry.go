// Package registry is the coordination substrate standing in for Apache
// ZooKeeper (paper Section V): a hierarchical, versioned key-value store
// with watches and ephemeral nodes tied to client sessions. The Governor
// stores data-source metadata, sharding rules and cluster status in it,
// and health detection uses ephemeral nodes to notice dead instances.
package registry

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the registry.
var (
	ErrNotFound        = errors.New("registry: node not found")
	ErrVersionConflict = errors.New("registry: version conflict")
	ErrSessionClosed   = errors.New("registry: session closed")
)

// node is one stored entry.
type node struct {
	value     string
	version   int64
	ephemeral int64 // owning session id, 0 for persistent
}

// watcher delivers the changed paths of one subscription.
type watcher struct {
	prefix string
	ch     chan string
}

// Registry is the coordination store. All methods are safe for concurrent
// use. Paths are slash-separated ("/rules/sharding/t_user").
type Registry struct {
	mu       sync.Mutex
	nodes    map[string]*node
	watchers map[int64]*watcher
	watchSeq int64
	sessSeq  int64
	sessions map[int64]map[string]struct{} // session → ephemeral paths
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		nodes:    map[string]*node{},
		watchers: map[int64]*watcher{},
		sessions: map[int64]map[string]struct{}{},
	}
}

func clean(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return strings.TrimRight(path, "/")
}

// Put creates or replaces the value at path, returning the new version.
func (r *Registry) Put(path, value string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.setLocked(clean(path), value).version
}

// setLocked writes value at path, creating its node, and notifies the
// path's watchers.
func (r *Registry) setLocked(path, value string) *node {
	n, ok := r.nodes[path]
	if !ok {
		n = &node{}
		r.nodes[path] = n
	}
	n.value = value
	n.version++
	r.notifyLocked(path)
	return n
}

// PutAll writes every entry in one critical section: one lock round trip
// and one watcher pass per batch instead of per key. The XA group
// committer relies on it to amortize decision-log writes across
// concurrent transactions.
func (r *Registry) PutAll(entries map[string]string) {
	r.mu.Lock()
	for path, value := range entries {
		r.setLocked(clean(path), value)
	}
	r.mu.Unlock()
}

// DeleteAll removes every listed node in one critical section; missing
// nodes are skipped.
func (r *Registry) DeleteAll(paths []string) {
	r.mu.Lock()
	for _, path := range paths {
		r.deleteLocked(clean(path))
	}
	r.mu.Unlock()
}

// PutEphemeral writes a node owned by the session; it is deleted when the
// session closes, which is how liveness is advertised.
func (r *Registry) PutEphemeral(sess *Session, path, value string) (int64, error) {
	path = clean(path)
	r.mu.Lock()
	defer r.mu.Unlock()
	paths, ok := r.sessions[sess.id]
	if !ok {
		return 0, ErrSessionClosed
	}
	n := r.setLocked(path, value)
	n.ephemeral = sess.id
	paths[path] = struct{}{}
	return n.version, nil
}

// CompareAndPut replaces the value only if the current version matches,
// enabling optimistic configuration updates.
func (r *Registry) CompareAndPut(path, value string, version int64) (int64, error) {
	path = clean(path)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[path]
	if !ok && version != 0 {
		return 0, ErrNotFound
	}
	if ok && n.version != version {
		return 0, ErrVersionConflict
	}
	return r.setLocked(path, value).version, nil
}

// Get returns the value and version at path.
func (r *Registry) Get(path string) (string, int64, error) {
	path = clean(path)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[path]
	if !ok {
		return "", 0, ErrNotFound
	}
	return n.value, n.version, nil
}

func (r *Registry) deleteLocked(path string) error {
	n, ok := r.nodes[path]
	if !ok {
		return ErrNotFound
	}
	if n.ephemeral != 0 {
		if paths, ok := r.sessions[n.ephemeral]; ok {
			delete(paths, path)
		}
	}
	delete(r.nodes, path)
	r.notifyLocked(path)
	return nil
}

// Children lists the immediate child names under path, sorted.
func (r *Registry) Children(path string) []string {
	path = clean(path)
	prefix := path + "/"
	if path == "" {
		prefix = "/"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]struct{}{}
	for p := range r.nodes {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// List returns every path with the given prefix and its value, sorted by
// path.
func (r *Registry) List(prefix string) map[string]string {
	prefix = clean(prefix)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]string{}
	for p, n := range r.nodes {
		if p == prefix || strings.HasPrefix(p, prefix+"/") {
			out[p] = n.value
		}
	}
	return out
}

// Watch subscribes to changes under the path prefix: each create, update
// or delete sends the path, and the watcher reads the path for its state.
// The returned channel is buffered; slow consumers drop events rather than
// blocking writers (matching ZooKeeper's at-most-once watch pragmatics).
// Cancel releases the subscription.
func (r *Registry) Watch(prefix string) (<-chan string, func()) {
	prefix = clean(prefix)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.watchSeq++
	id := r.watchSeq
	w := &watcher{prefix: prefix, ch: make(chan string, 256)}
	r.watchers[id] = w
	cancel := func() {
		r.mu.Lock()
		if ww, ok := r.watchers[id]; ok {
			delete(r.watchers, id)
			close(ww.ch)
		}
		r.mu.Unlock()
	}
	return w.ch, cancel
}

func (r *Registry) notifyLocked(path string) {
	for _, w := range r.watchers {
		if path == w.prefix || strings.HasPrefix(path, w.prefix+"/") {
			select {
			case w.ch <- path:
			default: // drop for slow consumers
			}
		}
	}
}

// --- sessions (ephemeral-node lifetime) ---

// Session groups ephemeral nodes; closing it deletes them, signalling the
// death of the instance that held it.
type Session struct {
	id  int64
	reg *Registry
}

// NewSession opens a session.
func (r *Registry) NewSession() *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessSeq++
	id := r.sessSeq
	r.sessions[id] = map[string]struct{}{}
	return &Session{id: id, reg: r}
}

// Close deletes the session's ephemeral nodes.
func (s *Session) Close() {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	paths, ok := s.reg.sessions[s.id]
	if !ok {
		return
	}
	delete(s.reg.sessions, s.id)
	for p := range paths {
		if n, ok := s.reg.nodes[p]; ok && n.ephemeral == s.id {
			delete(s.reg.nodes, p)
			s.reg.notifyLocked(p)
		}
	}
}
