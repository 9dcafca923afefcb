package vfs

import (
	"time"

	"doppio/internal/telemetry"
)

// Instrument wraps a backend so every operation's latency is recorded
// into per-backend histograms in the hub's registry (subsystem
// "vfs.<Name>", one histogram per op) plus an "ops" counter.
// A nil hub returns the backend unchanged.
func Instrument(b Backend, h *telemetry.Hub) Backend {
	if b == nil || h == nil {
		return b
	}
	sub := "vfs." + b.Name()
	reg := h.Registry
	return &instrumented{
		b:       b,
		flight:  h.Flight,
		ops:     reg.Counter(sub, "ops"),
		stat:    reg.Histogram(sub, "stat"),
		open:    reg.Histogram(sub, "open"),
		sync:    reg.Histogram(sub, "sync"),
		unlink:  reg.Histogram(sub, "unlink"),
		rmdir:   reg.Histogram(sub, "rmdir"),
		mkdir:   reg.Histogram(sub, "mkdir"),
		readdir: reg.Histogram(sub, "readdir"),
		rename:  reg.Histogram(sub, "rename"),
	}
}

// instrumented is the latency-recording decorator.
type instrumented struct {
	b Backend

	ops    *telemetry.Counter
	flight *telemetry.FlightRecorder

	stat, open, sync, unlink, rmdir, mkdir, readdir, rename *telemetry.Histogram
}

func (i *instrumented) done(h *telemetry.Histogram, start time.Time, op, path string, err error) {
	h.ObserveSince(start)
	i.ops.Inc()
	if i.flight != nil {
		note := ""
		if err != nil {
			if e, ok := Classify(err); ok {
				note = string(e)
			} else {
				note = "error"
			}
		}
		i.flight.RecordNote("vfs", op, path, note, 0)
	}
}

func (i *instrumented) Name() string   { return i.b.Name() }
func (i *instrumented) ReadOnly() bool { return i.b.ReadOnly() }

// Unwrap exposes the wrapped backend for decorator-chain discovery.
func (i *instrumented) Unwrap() Backend { return i.b }

func (i *instrumented) Stat(path string, cb func(Stats, error)) {
	start := time.Now()
	i.b.Stat(path, func(s Stats, err error) { i.done(i.stat, start, "stat", path, err); cb(s, err) })
}

func (i *instrumented) Open(path string, cb func([]byte, error)) {
	start := time.Now()
	i.b.Open(path, func(data []byte, err error) { i.done(i.open, start, "open", path, err); cb(data, err) })
}

func (i *instrumented) Sync(path string, data []byte, cb func(error)) {
	start := time.Now()
	i.b.Sync(path, data, func(err error) { i.done(i.sync, start, "sync", path, err); cb(err) })
}

func (i *instrumented) Unlink(path string, cb func(error)) {
	start := time.Now()
	i.b.Unlink(path, func(err error) { i.done(i.unlink, start, "unlink", path, err); cb(err) })
}

func (i *instrumented) Rmdir(path string, cb func(error)) {
	start := time.Now()
	i.b.Rmdir(path, func(err error) { i.done(i.rmdir, start, "rmdir", path, err); cb(err) })
}

func (i *instrumented) Mkdir(path string, cb func(error)) {
	start := time.Now()
	i.b.Mkdir(path, func(err error) { i.done(i.mkdir, start, "mkdir", path, err); cb(err) })
}

func (i *instrumented) Readdir(path string, cb func([]string, error)) {
	start := time.Now()
	i.b.Readdir(path, func(names []string, err error) { i.done(i.readdir, start, "readdir", path, err); cb(names, err) })
}

func (i *instrumented) Rename(oldPath, newPath string, cb func(error)) {
	start := time.Now()
	i.b.Rename(oldPath, newPath, func(err error) { i.done(i.rename, start, "rename", oldPath+" -> "+newPath, err); cb(err) })
}
