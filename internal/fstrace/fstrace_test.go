package fstrace

import (
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

func TestGenerateMatchesPaperProfile(t *testing.T) {
	tr := Generate(PaperParams())
	s := tr.Stats()
	if s.Ops != 3185 {
		t.Errorf("Ops = %d, want 3185", s.Ops)
	}
	// Unique files read should be close to 1560 (every file is read at
	// least once when op budget allows).
	if s.UniqueFiles < 1400 || s.UniqueFiles > 1560 {
		t.Errorf("UniqueFiles = %d, want ≈1560", s.UniqueFiles)
	}
	if s.BytesRead < 9_000_000 {
		t.Errorf("BytesRead = %d, want >10MB-ish", s.BytesRead)
	}
	if s.BytesWritten < 90_000 || s.BytesWritten > 105_000 {
		t.Errorf("BytesWritten = %d, want ≈97KB", s.BytesWritten)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenerateParams{Ops: 100, UniqueFiles: 10, BytesRead: 1000, BytesWritten: 100})
	b := Generate(GenerateParams{Ops: 100, UniqueFiles: 10, BytesRead: 1000, BytesWritten: 100})
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("nondeterministic op count")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestReplayVFS(t *testing.T) {
	tr := Generate(GenerateParams{Ops: 200, UniqueFiles: 20, BytesRead: 20 * 256, BytesWritten: 512})
	win := browser.NewWindow(browser.Chrome28)
	bufs := &buffer.Factory{Typed: true}
	fs := vfs.New(win.Loop, bufs, vfs.NewInMemory())

	var replayOK int
	var replayErr error
	win.Loop.Post("seed", func() {
		SeedVFS(fs, tr, func(err error) {
			if err != nil {
				t.Errorf("seed: %v", err)
				return
			}
			ReplayVFS(win.Loop, fs, tr, func(ok int, err error) {
				replayOK, replayErr = ok, err
			})
		})
	})
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if replayErr != nil {
		t.Fatal(replayErr)
	}
	if replayOK != len(tr.Ops) {
		t.Errorf("ok ops = %d / %d", replayOK, len(tr.Ops))
	}
}

func TestReplayOS(t *testing.T) {
	tr := Generate(GenerateParams{Ops: 120, UniqueFiles: 12, BytesRead: 12 * 100, BytesWritten: 300})
	root := t.TempDir()
	if err := SeedOS(root, tr); err != nil {
		t.Fatal(err)
	}
	ok, err := ReplayOS(root, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ok != len(tr.Ops) {
		t.Errorf("ok ops = %d / %d", ok, len(tr.Ops))
	}
}

func TestReplayVFSWithTelemetry(t *testing.T) {
	tr := Generate(GenerateParams{Ops: 120, UniqueFiles: 12, BytesRead: 12 * 128, BytesWritten: 256})
	hub := telemetry.NewHub()
	win := browser.NewWindow(browser.Chrome28)
	bufs := &buffer.Factory{Typed: true}
	fs := vfs.New(win.Loop, bufs, vfs.Instrument(vfs.NewInMemory(), hub))

	var replayOK int
	win.Loop.Post("seed", func() {
		SeedVFS(fs, tr, func(err error) {
			if err != nil {
				t.Errorf("seed: %v", err)
				return
			}
			ReplayVFSWith(win.Loop, fs, tr, hub, func(ok int, err error) {
				if err != nil {
					t.Errorf("replay: %v", err)
				}
				replayOK = ok
			})
		})
	})
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if replayOK != len(tr.Ops) {
		t.Fatalf("ok ops = %d / %d", replayOK, len(tr.Ops))
	}

	// Per-op replay latencies, keyed by trace op kind.
	var kinds = map[OpKind]int64{}
	for _, op := range tr.Ops {
		kinds[op.Kind]++
	}
	total := int64(0)
	for kind, want := range kinds {
		got := hub.Registry.Histogram("fstrace", string(kind)).Count()
		if got != want {
			t.Errorf("fstrace/%s count = %d, want %d", kind, got, want)
		}
		total += got
	}
	if total != int64(len(tr.Ops)) {
		t.Errorf("total observed = %d, want %d", total, len(tr.Ops))
	}

	// The instrumented backend must have seen the traffic too (replay
	// plus seeding).
	if got := hub.Registry.Counter("vfs.InMemory", "ops").Value(); got < int64(len(tr.Ops)) {
		t.Errorf("vfs.InMemory/ops = %d, want >= %d", got, len(tr.Ops))
	}
}
