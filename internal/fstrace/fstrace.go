// Package fstrace generates and replays file system call traces — the
// methodology of the paper's Figure 6, which replays "recorded file
// system calls from DOPPIOJVM's javac benchmark" against the Doppio
// file system and against Node JS on the native file system. The
// trace is generated to the recorded trace's published profile
// (PaperParams), not recorded from a run.
package fstrace

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"doppio/internal/buffer"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// OpKind enumerates traced operations.
type OpKind string

// The operation kinds a trace may contain.
const (
	OpStat    OpKind = "stat"
	OpRead    OpKind = "read"  // whole-file read (open+read+close)
	OpWrite   OpKind = "write" // whole-file write (open+write+close)
	OpReaddir OpKind = "readdir"
	OpExists  OpKind = "exists"
)

// Op is one traced call.
type Op struct {
	Kind OpKind
	Path string
	// Size is the byte count written (for OpWrite).
	Size int
}

// Trace is an ordered sequence of file system calls plus the file tree
// it runs against.
type Trace struct {
	Ops []Op
	// Files seeds the tree: path → content size in bytes.
	Files map[string]int
	// Dirs lists directories (beyond those implied by Files).
	Dirs []string
}

// Stats summarizes a trace the way §7.3 reports the javac trace.
type Stats struct {
	Ops          int
	UniqueFiles  int
	BytesRead    int
	BytesWritten int
}

// Stats computes the summary counters for the trace.
func (t *Trace) Stats() Stats {
	s := Stats{Ops: len(t.Ops)}
	seen := map[string]bool{}
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			s.BytesRead += t.Files[op.Path]
			seen[op.Path] = true
		case OpWrite:
			s.BytesWritten += op.Size
		}
	}
	s.UniqueFiles = len(seen)
	return s
}

// GenerateParams scale the synthetic trace. Defaults reproduce the
// paper's javac workload profile: "3185 file system operations,
// touches 1560 unique files, reads over 10.5 megabytes of data, and
// writes 97 kilobytes of data back to disk" (§7.3). The mix mirrors a
// class-loading compiler: stat+read per class file, a directory
// listing here and there, a few output writes.
type GenerateParams struct {
	Ops          int
	UniqueFiles  int
	BytesRead    int
	BytesWritten int
}

// PaperParams returns the Figure 6 workload profile.
func PaperParams() GenerateParams {
	return GenerateParams{Ops: 3185, UniqueFiles: 1560, BytesRead: 10_500_000, BytesWritten: 97_000}
}

// Generate builds a deterministic trace with the requested profile.
func Generate(p GenerateParams) *Trace {
	if p.UniqueFiles < 1 {
		p.UniqueFiles = 1
	}
	t := &Trace{Files: make(map[string]int)}
	fileSize := p.BytesRead / p.UniqueFiles
	if fileSize < 1 {
		fileSize = 1
	}
	// A shallow package tree, like a class path.
	nDirs := p.UniqueFiles/64 + 1
	paths := make([]string, p.UniqueFiles)
	for d := 0; d < nDirs; d++ {
		t.Dirs = append(t.Dirs, fmt.Sprintf("/classes/pkg%02d", d))
	}
	for i := 0; i < p.UniqueFiles; i++ {
		paths[i] = fmt.Sprintf("/classes/pkg%02d/Class%04d.class", i%nDirs, i)
		t.Files[paths[i]] = fileSize
	}

	// Interleave: stat, read per file (2 ops each); periodic readdir;
	// and writes spread across the run.
	nWrites := 24
	writeSize := p.BytesWritten / nWrites
	budget := p.Ops
	fileIdx := 0
	writeIdx := 0
	i := 0
	for budget > 0 {
		switch {
		case i%65 == 64 && writeIdx < nWrites:
			t.Ops = append(t.Ops, Op{Kind: OpWrite, Path: fmt.Sprintf("/out/Out%02d.class", writeIdx), Size: writeSize})
			writeIdx++
			budget--
		case i%50 == 49:
			t.Ops = append(t.Ops, Op{Kind: OpReaddir, Path: t.Dirs[i%nDirs]})
			budget--
		default:
			p := paths[fileIdx%len(paths)]
			fileIdx++
			t.Ops = append(t.Ops, Op{Kind: OpStat, Path: p})
			budget--
			if budget > 0 {
				t.Ops = append(t.Ops, Op{Kind: OpRead, Path: p})
				budget--
			}
		}
		i++
	}
	t.Dirs = append(t.Dirs, "/out")
	return t
}

// fileContent builds deterministic content of the given size.
func fileContent(path string, size int) []byte {
	out := make([]byte, size)
	seed := 0
	for _, c := range path {
		seed = seed*31 + int(c)
	}
	for i := range out {
		seed = seed*1103515245 + 12345
		out[i] = byte(seed >> 16)
	}
	return out
}

// SeedVFS populates a Doppio file system with the trace's tree,
// delivering completion via done. The loop must be run by the caller.
func SeedVFS(fs *vfs.FS, t *Trace, done func(error)) {
	var dirs []string
	dirs = append(dirs, t.Dirs...)
	seenDir := map[string]bool{}
	for p := range t.Files {
		d := filepath.Dir(p)
		if !seenDir[d] {
			seenDir[d] = true
			dirs = append(dirs, d)
		}
	}
	var mkdirs func(i int)
	files := sortedPaths(t.Files)
	var writes func(i int)
	writes = func(i int) {
		if i == len(files) {
			done(nil)
			return
		}
		p := files[i]
		fs.WriteFile(p, fileContent(p, t.Files[p]), func(err error) {
			if err != nil {
				done(err)
				return
			}
			writes(i + 1)
		})
	}
	mkdirs = func(i int) {
		if i == len(dirs) {
			writes(0)
			return
		}
		fs.MkdirAll(dirs[i], func(err error) {
			if err != nil {
				done(err)
				return
			}
			mkdirs(i + 1)
		})
	}
	mkdirs(0)
}

func sortedPaths(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// OpResult is one replayed operation's observable outcome in a
// comparable form: the errno it produced (empty for success) and a
// digest of the data it returned. Two replays of the same trace are
// behaviourally identical exactly when their OpResult logs are equal —
// the comparison the fault-injection A/B harness runs to prove the
// retry layer absorbed every injected fault.
type OpResult struct {
	Kind  OpKind
	Path  string
	Errno string // vfs errno string, "" on success
	Sum   uint64 // FNV-1a of returned data (reads, listings, stats)
}

// String formats one log entry for diffs in test failures.
func (r OpResult) String() string {
	e := r.Errno
	if e == "" {
		e = "OK"
	}
	return fmt.Sprintf("%s %s → %s %016x", r.Kind, r.Path, e, r.Sum)
}

// resultErrno renders an operation error as a stable string: the vfs
// errno when the error classifies, "ERR" otherwise.
func resultErrno(err error) string {
	if err == nil {
		return ""
	}
	if e, ok := vfs.Classify(err); ok {
		return string(e)
	}
	return "ERR"
}

func hashBytes(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// ReplayVFS replays the trace against a Doppio file system, invoking
// done with the number of successful operations. Run the loop to
// completion to drive it.
func ReplayVFS(loop *eventloop.Loop, fs *vfs.FS, t *Trace, done func(okOps int, err error)) {
	ReplayVFSWith(loop, fs, t, nil, done)
}

// ReplayVFSRecord is ReplayVFSWith plus a per-operation result log for
// bit-identical comparison across runs.
func ReplayVFSRecord(loop *eventloop.Loop, fs *vfs.FS, t *Trace, hub *telemetry.Hub, done func(okOps int, log []OpResult, err error)) {
	replay(loop, fs, t, hub, true, done)
}

// ReplayVFSWith is ReplayVFS with per-operation latency telemetry:
// when hub is non-nil, every replayed call's wall time is recorded
// into an "fstrace" histogram named after the operation kind — the
// Figure 6 per-op latency view. A nil hub records nothing.
func ReplayVFSWith(loop *eventloop.Loop, fs *vfs.FS, t *Trace, hub *telemetry.Hub, done func(okOps int, err error)) {
	replay(loop, fs, t, hub, false, func(ok int, _ []OpResult, err error) { done(ok, err) })
}

func replay(loop *eventloop.Loop, fs *vfs.FS, t *Trace, hub *telemetry.Hub, record bool, done func(okOps int, log []OpResult, err error)) {
	var hists map[OpKind]*telemetry.Histogram
	if hub != nil {
		hists = make(map[OpKind]*telemetry.Histogram, 5)
		for _, k := range []OpKind{OpStat, OpRead, OpWrite, OpReaddir, OpExists} {
			hists[k] = hub.Registry.Histogram("fstrace", string(k))
		}
	}
	ok := 0
	var log []OpResult
	if record {
		log = make([]OpResult, 0, len(t.Ops))
	}
	var step func(i int)
	step = func(i int) {
		if i == len(t.Ops) {
			done(ok, log, nil)
			return
		}
		op := t.Ops[i]
		start := time.Now()
		next := func(err error, sum uint64) {
			if h := hists[op.Kind]; h != nil {
				h.ObserveSince(start)
			}
			if err == nil {
				ok++
			}
			if record {
				if err != nil {
					sum = 0
				}
				log = append(log, OpResult{Kind: op.Kind, Path: op.Path, Errno: resultErrno(err), Sum: sum})
			}
			step(i + 1)
		}
		switch op.Kind {
		case OpStat:
			fs.Stat(op.Path, func(st vfs.Stats, err error) {
				next(err, hashBytes([]byte(fmt.Sprintf("%d:%d", st.Type, st.Size))))
			})
		case OpExists:
			fs.Exists(op.Path, func(exists bool) {
				sum := uint64(0)
				if exists {
					sum = 1
				}
				next(nil, sum)
			})
		case OpRead:
			fs.ReadFile(op.Path, func(b *buffer.Buffer, err error) {
				var sum uint64
				if err == nil && b != nil {
					sum = hashBytes(b.Bytes())
				}
				next(err, sum)
			})
		case OpWrite:
			fs.WriteFile(op.Path, fileContent(op.Path, op.Size), func(err error) { next(err, 0) })
		case OpReaddir:
			fs.Readdir(op.Path, func(names []string, err error) {
				next(err, hashBytes([]byte(strings.Join(names, "\x00"))))
			})
		default:
			next(fmt.Errorf("fstrace: unknown op %q", op.Kind), 0)
		}
	}
	step(0)
}

// SeedOS materializes the trace's tree under root on the host file
// system — the Figure 6 baseline substrate.
func SeedOS(root string, t *Trace) error {
	for _, d := range t.Dirs {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			return err
		}
	}
	for p, size := range t.Files {
		full := filepath.Join(root, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, fileContent(p, size), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReplayOS replays the trace directly against the host file system —
// "Node JS running on top of the native OS file system".
func ReplayOS(root string, t *Trace) (okOps int, err error) {
	ok := 0
	for _, op := range t.Ops {
		full := filepath.Join(root, op.Path)
		switch op.Kind {
		case OpStat, OpExists:
			if _, err := os.Stat(full); err == nil {
				ok++
			}
		case OpRead:
			if _, err := os.ReadFile(full); err == nil {
				ok++
			}
		case OpWrite:
			if err := os.WriteFile(full, fileContent(op.Path, op.Size), 0o644); err == nil {
				ok++
			}
		case OpReaddir:
			if _, err := os.ReadDir(full); err == nil {
				ok++
			}
		}
	}
	return ok, nil
}
