package jvm

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"strings"

	"doppio/internal/vfs"
)

// WriteJar builds a JAR (zip) archive from class files keyed by
// internal name.
func WriteJar(classes map[string][]byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	// Deterministic order.
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		w, err := zw.Create(name + ".class")
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(classes[name]); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadJar extracts the class files of a JAR archive.
func ReadJar(data []byte) (map[string][]byte, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("jvm: bad jar: %w", err)
	}
	out := make(map[string][]byte)
	for _, f := range zr.File {
		if !strings.HasSuffix(f.Name, ".class") {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		content, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(f.Name, ".class")] = content
	}
	return out, nil
}

// JarProvider serves classes from an in-memory JAR image (§6.4: the
// class loader checks "the folders and JAR archive files specified on
// the class path").
type JarProvider struct {
	classes map[string][]byte
}

// NewJarProvider parses jar bytes into a provider.
func NewJarProvider(data []byte) (*JarProvider, error) {
	classes, err := ReadJar(data)
	if err != nil {
		return nil, err
	}
	return &JarProvider{classes: classes}, nil
}

// Bytes returns a class's bytes.
func (p *JarProvider) Bytes(name string) ([]byte, error) {
	return MapProvider(p.classes).Bytes(name)
}

// BytesAsync returns a class's bytes via cb.
func (p *JarProvider) BytesAsync(name string, cb func([]byte, error)) {
	cb(p.Bytes(name))
}

// LoadJarFromVFS fetches a JAR through the Doppio file system (so the
// archive itself can live on any backend — HTTP, localStorage, cloud)
// and delivers a provider for it.
func LoadJarFromVFS(fs *vfs.FS, path string, cb func(*JarProvider, error)) {
	// ReadJar only reads the archive (each entry lands in a slice of
	// its own), so the VFS's read-only slice needs no copy.
	fs.ReadFileBytes(path, func(data []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		p, perr := NewJarProvider(data)
		cb(p, perr)
	})
}

// MultiProvider tries each provider in class-path order.
type MultiProvider []AsyncProvider

// BytesAsync walks the class path.
func (m MultiProvider) BytesAsync(name string, cb func([]byte, error)) {
	var try func(i int)
	try = func(i int) {
		if i == len(m) {
			cb(nil, &ClassNotFoundError{Name: name})
			return
		}
		m[i].BytesAsync(name, func(data []byte, err error) {
			if err != nil {
				try(i + 1)
				return
			}
			cb(data, nil)
		})
	}
	try(0)
}
