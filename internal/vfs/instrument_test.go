package vfs

import (
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/telemetry"
)

func newFlatKVForTest() *FlatKV {
	w := browser.NewWindow(browser.Chrome28)
	return NewLocalStorageFS(w.LocalStorage, &buffer.Factory{})
}

func TestInstrumentRecordsPerOpLatency(t *testing.T) {
	hub := telemetry.NewHub()
	b := Instrument(NewInMemory(), hub)

	if b.Name() != "InMemory" {
		t.Fatalf("Name = %q, want InMemory", b.Name())
	}
	done := make(chan struct{})
	b.Mkdir("/d", func(err error) {
		if err != nil {
			t.Errorf("mkdir: %v", err)
		}
		b.Sync("/d/f", []byte("hello"), func(err error) {
			if err != nil {
				t.Errorf("sync: %v", err)
			}
			b.Open("/d/f", func(data []byte, err error) {
				if err != nil || string(data) != "hello" {
					t.Errorf("open = %q, %v", data, err)
				}
				b.Stat("/d/f", func(s Stats, err error) {
					if err != nil {
						t.Errorf("stat: %v", err)
					}
					close(done)
				})
			})
		})
	})
	<-done

	reg := hub.Registry
	for _, op := range []string{"mkdir", "sync", "open", "stat"} {
		if got := reg.Histogram("vfs.InMemory", op).Count(); got != 1 {
			t.Errorf("vfs.InMemory/%s count = %d, want 1", op, got)
		}
	}
	if got := reg.Counter("vfs.InMemory", "ops").Value(); got != 4 {
		t.Errorf("ops = %d, want 4", got)
	}
}

func TestInstrumentPreservesOptionalCapabilities(t *testing.T) {
	hub := telemetry.NewHub()

	// InMemory supports links; the wrapper must too.
	mem := Instrument(NewInMemory(), hub)
	lb, ok := mem.(LinkBackend)
	if !ok {
		t.Fatal("instrumented InMemory lost LinkBackend")
	}
	done := make(chan struct{})
	lb.Symlink("/target", "/link", func(err error) {
		if err != nil {
			t.Errorf("symlink: %v", err)
		}
		close(done)
	})
	<-done
	if got := hub.Registry.Histogram("vfs.InMemory", "symlink").Count(); got != 1 {
		t.Errorf("symlink count = %d, want 1", got)
	}

	// FlatKV does not; the wrapper must not invent it.
	kv := Instrument(newFlatKVForTest(), hub)
	if _, ok := kv.(LinkBackend); ok {
		t.Fatal("instrumented FlatKV gained LinkBackend")
	}
}

func TestInstrumentNilHubIsIdentity(t *testing.T) {
	b := NewInMemory()
	if got := Instrument(b, nil); got != Backend(b) {
		t.Fatal("nil hub must return the backend unchanged")
	}
}
