package jvm

import (
	"fmt"
	"time"

	"doppio/internal/classfile"
)

// SyncProvider supplies class file bytes synchronously (the native
// engine's class path).
type SyncProvider interface {
	Bytes(internalName string) ([]byte, error)
}

// AsyncProvider supplies class file bytes asynchronously — the Doppio
// class path, backed by the Doppio file system so that class files
// download on demand (§6.4).
type AsyncProvider interface {
	BytesAsync(internalName string, cb func([]byte, error))
}

// MapProvider serves classes from memory; it satisfies both provider
// interfaces.
type MapProvider map[string][]byte

// Bytes returns the class bytes or an error.
func (m MapProvider) Bytes(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("jvm: class not found: %s", name)
	}
	return b, nil
}

// BytesAsync returns the class bytes via cb (synchronously).
func (m MapProvider) BytesAsync(name string, cb func([]byte, error)) {
	cb(m.Bytes(name))
}

// ClassNotFoundError marks a missing class; engines convert it into
// java/lang/ClassNotFoundException.
type ClassNotFoundError struct{ Name string }

func (e *ClassNotFoundError) Error() string { return "jvm: class not found: " + e.Name }

// Registry holds loaded classes shared by the loading strategies.
type Registry struct {
	classes map[string]*Class
}

// NewRegistry creates an empty class registry.
func NewRegistry() *Registry { return &Registry{classes: make(map[string]*Class)} }

// Get returns an already-loaded, fully linked class, or nil. Classes
// the async loader has registered but not yet linked (their Super is
// still being chained in) are hidden: an engine probing mid-load sees
// "not loaded" and takes its normal load path, joining the in-flight
// load's waiters instead of observing a half-linked hierarchy — which
// would otherwise poison the memoized field layouts.
func (r *Registry) Get(name string) *Class {
	c := r.classes[name]
	if c == nil || !c.linked {
		return nil
	}
	return c
}

// Loaded returns the number of loaded classes.
func (r *Registry) Loaded() int { return len(r.classes) }

// arrayClass synthesizes (or returns the cached) runtime class for an
// array type name such as "[I" or "[Ljava/lang/String;".
func (r *Registry) arrayClass(name string) (*Class, error) {
	if c := r.classes[name]; c != nil {
		return c, nil
	}
	object := r.classes["java/lang/Object"]
	if object == nil {
		return nil, fmt.Errorf("jvm: array class %s requested before java/lang/Object", name)
	}
	c := &Class{
		Name:     name,
		Super:    object,
		Flags:    classfile.AccPublic,
		Statics:  make(map[string]Slot),
		State:    StateInitialized,
		IsArray:  true,
		ElemDesc: name[1:],
		linked:   true,
	}
	c.Layout()
	r.classes[name] = c
	return c, nil
}

// SyncLoader loads classes recursively and synchronously.
type SyncLoader struct {
	Reg      *Registry
	Provider SyncProvider

	// loading marks classes whose hierarchy is being chained in right
	// now — a re-entrant request for one is a superclass/interface
	// cycle, which a valid compiler never emits but a malformed class
	// file can.
	loading map[string]bool
}

// Load returns the class, loading and linking it (and its supertypes)
// if needed. It does not run <clinit>; engines do that at first use.
func (l *SyncLoader) Load(name string) (*Class, error) {
	if c := l.Reg.Get(name); c != nil {
		return c, nil
	}
	if name == "" {
		return nil, fmt.Errorf("jvm: empty class name")
	}
	if name[0] == '[' {
		elem := name[1:]
		// Ensure the element class exists for reference elements.
		if len(elem) > 0 && elem[0] == 'L' {
			if _, err := l.Load(elem[1 : len(elem)-1]); err != nil {
				return nil, err
			}
		} else if len(elem) > 0 && elem[0] == '[' {
			if _, err := l.Load(elem); err != nil {
				return nil, err
			}
		}
		return l.Reg.arrayClass(name)
	}
	// The loading set rejects hierarchy cycles, which would otherwise
	// recurse forever now that Registry.Get hides unlinked classes.
	if l.loading[name] {
		return nil, fmt.Errorf("jvm: circular class hierarchy at %s", name)
	}
	data, err := l.Provider.Bytes(name)
	if err != nil {
		return nil, &ClassNotFoundError{Name: name}
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("jvm: defining %s: %w", name, err)
	}
	if cf.Name() != name {
		return nil, fmt.Errorf("jvm: class file for %s declares name %s", name, cf.Name())
	}
	c, err := buildRuntime(cf)
	if err != nil {
		return nil, err
	}
	// Register before linking supertypes so self-references (e.g.
	// Object's methods) resolve.
	if l.loading == nil {
		l.loading = make(map[string]bool)
	}
	l.loading[name] = true
	defer delete(l.loading, name)
	l.Reg.classes[name] = c
	if super := cf.SuperName(); super != "" {
		sc, err := l.Load(super)
		if err != nil {
			return nil, err
		}
		c.Super = sc
	}
	for _, iname := range cf.InterfaceNames() {
		ic, err := l.Load(iname)
		if err != nil {
			return nil, err
		}
		c.Interfaces = append(c.Interfaces, ic)
	}
	// Link complete: publish the class and fix its field layout.
	c.linked = true
	c.Layout()
	return c, nil
}

// AsyncLoader loads classes through an asynchronous provider,
// chaining the supertype loads through callbacks — the §6.4 dynamic
// download path.
type AsyncLoader struct {
	Reg      *Registry
	Provider AsyncProvider

	// Observe, when set, is called with the wall time of every fresh
	// (non-cached) class load — the §6.4 download-and-define latency.
	Observe func(name string, took time.Duration)

	// LoadsInFlight guards against duplicate concurrent loads.
	pending map[string][]func(*Class, error)
}

// NewAsyncLoader creates an async loader over the registry.
func NewAsyncLoader(reg *Registry, p AsyncProvider) *AsyncLoader {
	return &AsyncLoader{Reg: reg, Provider: p, pending: make(map[string][]func(*Class, error))}
}

// Load delivers the loaded, linked class via cb.
func (l *AsyncLoader) Load(name string, cb func(*Class, error)) {
	l.load(name, cb, nil)
}

// load is Load with the dependency chain threaded through: chain
// holds the classes whose supertype resolution is in progress above
// this request, so a hierarchy cycle (A extends B extends A) errors
// instead of deadlocking in the pending-waiter queue.
func (l *AsyncLoader) load(name string, cb func(*Class, error), chain map[string]bool) {
	if c := l.Reg.Get(name); c != nil {
		cb(c, nil)
		return
	}
	if name == "" {
		cb(nil, fmt.Errorf("jvm: empty class name"))
		return
	}
	if chain[name] {
		cb(nil, fmt.Errorf("jvm: circular class hierarchy at %s", name))
		return
	}
	if name[0] == '[' {
		elem := name[1:]
		finish := func(err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			cb(l.Reg.arrayClass(name))
		}
		switch {
		case len(elem) > 0 && elem[0] == 'L':
			l.load(elem[1:len(elem)-1], func(_ *Class, err error) { finish(err) }, chain)
		case len(elem) > 0 && elem[0] == '[':
			l.load(elem, func(_ *Class, err error) { finish(err) }, chain)
		default:
			finish(nil)
		}
		return
	}
	if waiters, inFlight := l.pending[name]; inFlight {
		l.pending[name] = append(waiters, cb)
		return
	}
	l.pending[name] = []func(*Class, error){cb}
	loadStart := time.Now()
	finish := func(c *Class, err error) {
		if l.Observe != nil && err == nil {
			l.Observe(name, time.Since(loadStart))
		}
		waiters := l.pending[name]
		delete(l.pending, name)
		for _, w := range waiters {
			w(c, err)
		}
	}
	l.Provider.BytesAsync(name, func(data []byte, err error) {
		if err != nil {
			finish(nil, &ClassNotFoundError{Name: name})
			return
		}
		cf, perr := classfile.Parse(data)
		if perr != nil {
			finish(nil, fmt.Errorf("jvm: defining %s: %w", name, perr))
			return
		}
		if cf.Name() != name {
			finish(nil, fmt.Errorf("jvm: class file for %s declares name %s", name, cf.Name()))
			return
		}
		c, berr := buildRuntime(cf)
		if berr != nil {
			finish(nil, berr)
			return
		}
		l.Reg.classes[name] = c
		// Chain: super, then each interface. The class is registered
		// but stays hidden (unlinked) until the chain completes.
		deps := []string{}
		if super := cf.SuperName(); super != "" {
			deps = append(deps, super)
		}
		deps = append(deps, cf.InterfaceNames()...)
		sub := map[string]bool{name: true}
		for n := range chain {
			sub[n] = true
		}
		var step func(i int)
		step = func(i int) {
			if i == len(deps) {
				if super := cf.SuperName(); super != "" {
					c.Super = l.Reg.Get(super)
				}
				for _, iname := range cf.InterfaceNames() {
					c.Interfaces = append(c.Interfaces, l.Reg.Get(iname))
				}
				// Link complete: publish and fix the field layout.
				c.linked = true
				c.Layout()
				finish(c, nil)
				return
			}
			l.load(deps[i], func(_ *Class, err error) {
				if err != nil {
					finish(nil, err)
					return
				}
				step(i + 1)
			}, sub)
		}
		step(0)
	})
}
