package browser

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
)

// RemoteServer models the web server that hosts the page: a read-only
// tree of files reachable via XMLHttpRequest. Binary downloads are
// asynchronous-only, which is precisely the restriction (§3.2) that
// Doppio's sync-over-async machinery exists to hide.
type RemoteServer struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// remoteLatency is the simulated network round trip per request.
const remoteLatency = 300 * time.Microsecond

// NewRemoteServer creates an empty server.
func NewRemoteServer() *RemoteServer {
	return &RemoteServer{files: make(map[string][]byte)}
}

func cleanRemotePath(p string) string {
	return strings.TrimPrefix(p, "/")
}

// Serve publishes content at path (leading slash optional).
func (r *RemoteServer) Serve(path string, content []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files[cleanRemotePath(path)] = append([]byte(nil), content...)
}

// Index returns all served paths, sorted. Doppio's HTTP-backed file
// system downloads such a listing at mount time to learn the tree.
func (r *RemoteServer) Index() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	paths := make([]string, 0, len(r.files))
	for p := range r.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// StatusError is an XHR failure with an HTTP-like status code.
type StatusError struct {
	Status int
	Path   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("browser: XHR %q failed with status %d", e.Path, e.Status)
}

// fetch performs the lookup (no latency).
func (r *RemoteServer) fetch(path string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.files[cleanRemotePath(path)]
	if !ok {
		return nil, &StatusError{Status: 404, Path: path}
	}
	return append([]byte(nil), b...), nil
}

// XHRGetAsync downloads path and delivers the result on the event loop
// after the simulated network latency.
func (r *RemoteServer) XHRGetAsync(loop *eventloop.Loop, path string, cb func(data []byte, err error)) {
	c := core.NewCompletion(loop, "browser.xhr")
	c.Then(func(v interface{}, err error) {
		data, _ := v.([]byte)
		cb(data, err)
	})
	resolve := c.Resolver()
	go func() {
		time.Sleep(remoteLatency)
		data, err := r.fetch(path)
		resolve(data, err)
	}()
}

// XHRHeadAsync checks existence and size without transferring content.
func (r *RemoteServer) XHRHeadAsync(loop *eventloop.Loop, path string, cb func(size int, err error)) {
	r.XHRGetAsync(loop, path, func(data []byte, err error) {
		cb(len(data), err)
	})
}
