// Package jvm implements DoppioJVM (§6 of the paper): a Java Virtual
// Machine interpreter with all 201 JVM-spec-2e bytecodes, explicit
// heap-allocated stack frames, class loading through the Doppio file
// system, exceptions by virtual-stack walking, JVM threads over the
// Doppio thread pool, and native methods bridging to Doppio's OS
// services.
//
// Two engines execute the same loaded classes:
//
//   - the Doppio engine (doppio_engine.go) runs inside a simulated
//     browser event loop with JavaScript value semantics — ints as
//     float64 with |0 coercions, longs as software hi/lo pairs,
//     suspend checks at call boundaries, and asynchronous I/O hidden
//     behind suspend-and-resume;
//
//   - the native engine (native_engine.go) is the baseline analog of
//     the HotSpot interpreter: typed slots, int64 longs, no suspend
//     machinery, synchronous I/O.
//
// The performance comparison between them regenerates Figures 3-5.
package jvm

import (
	"fmt"

	"doppio/internal/classfile"
)

// ClassState tracks initialization (JVM spec §2.17).
type ClassState int

// Class lifecycle states.
const (
	StateLoaded ClassState = iota
	StateInitializing
	StateInitialized
)

// Class is a loaded runtime class.
type Class struct {
	Name       string
	File       *classfile.ClassFile
	Super      *Class
	Interfaces []*Class
	Flags      uint16

	Methods []*Method
	Fields  []*Field

	// Statics holds static field values keyed by field name.
	Statics map[string]Slot

	State ClassState

	// CP is the runtime constant pool with resolution caches.
	CP []RTConst

	// Array classes.
	IsArray  bool
	ElemDesc string // element type descriptor for array classes

	methodCache map[methodKey]*Method

	// mirror is the java/lang/Class instance for getClass().
	mirror *Object

	// layout is the memoized instance-field layout (nil until first
	// use; only cached once the hierarchy is linked, so a concurrent
	// async load can never bake in a super-less prefix).
	layout *FieldLayout

	// linked is set by the loader once Super and Interfaces point at
	// real classes. Registry.Get hides unlinked classes from the
	// engines, so an in-flight async load is indistinguishable from a
	// not-yet-requested one.
	linked bool

	// offCache memoizes OffsetOf results per queried name, including
	// misses (-1), so reflective by-name probes pay the hierarchy
	// walk once.
	offCache map[string]int
}

// FieldLayout is a class's instance-field layout, computed at link
// time: the total slot count for the hierarchy and the offsets of the
// fields this class declares itself. Superclass fields occupy the
// prefix [0, Super.Layout().Slots), so an offset resolved against any
// class in the chain indexes correctly into every subclass instance —
// the property quickened getfield/putfield rely on.
type FieldLayout struct {
	// Slots is the instance size in slots, including all supers.
	Slots int
	// Own maps field name → offset for fields declared by this class
	// only (shadowing a super's field yields a distinct slot, same as
	// the JVM's per-declaring-class storage).
	Own map[string]int
}

// Layout computes (and, once the class is linked, memoizes) the
// instance-field layout, assigning Field.Offset as a side effect.
// Static fields keep Offset -1 — they stay in the Statics map.
func (c *Class) Layout() *FieldLayout {
	if c.layout != nil {
		return c.layout
	}
	base := 0
	if c.Super != nil {
		base = c.Super.Layout().Slots
	}
	own := make(map[string]int)
	for _, f := range c.Fields {
		if f.IsStatic() {
			f.Offset = -1
			continue
		}
		f.Offset = base
		own[f.Name] = base
		base++
	}
	lay := &FieldLayout{Slots: base, Own: own}
	if c.linked {
		c.layout = lay
	}
	return lay
}

// OffsetOf resolves an instance-field name to its slot offset,
// walking the superclass chain from c (most-derived declaration
// wins, matching GetField's shadowing semantics). Returns -1 when no
// class in the chain declares the field. Results are memoized.
func (c *Class) OffsetOf(name string) int {
	if off, ok := c.offCache[name]; ok {
		return off
	}
	off := -1
	for k := c; k != nil; k = k.Super {
		if o, ok := k.Layout().Own[name]; ok {
			off = o
			break
		}
	}
	if !c.linked {
		// Don't memoize against a half-linked hierarchy.
		return off
	}
	if c.offCache == nil {
		c.offCache = make(map[string]int)
	}
	c.offCache[name] = off
	return off
}

// IsInterface reports whether the class is an interface.
func (c *Class) IsInterface() bool { return c.Flags&classfile.AccInterface != 0 }

// Method is a runtime method.
type Method struct {
	Class      *Class
	Name, Desc string
	Flags      uint16
	Code       *classfile.Code
	ParamDescs []string
	RetDesc    string
	ArgSlots   int // argument slots excluding the receiver

	// quick is the method's quickening side-table (nil until the
	// first quickenable site resolves). The original bytecode is
	// never rewritten — see QuickTable.
	quick *QuickTable

	// native and nativeLabel are a native method's Go function and its
	// jvm.native(...) block label, set by the first call.
	native      NativeFunc
	nativeLabel string
}

// resolveNative returns m's Go function, looking it up once: the
// table is keyed Class.name+desc, and a native may be registered on a
// superclass. Nil means the native is missing.
func (m *Method) resolveNative(natives map[string]NativeFunc) NativeFunc {
	if m.native == nil {
		for k := m.Class; k != nil && m.native == nil; k = k.Super {
			m.native = natives[k.Name+"."+m.Name+m.Desc]
		}
		m.nativeLabel = "jvm.native(" + m.String() + ")"
	}
	return m.native
}

// IsStatic reports the static flag.
func (m *Method) IsStatic() bool { return m.Flags&classfile.AccStatic != 0 }

// IsNative reports the native flag.
func (m *Method) IsNative() bool { return m.Flags&classfile.AccNative != 0 }

// IsAbstract reports the abstract flag.
func (m *Method) IsAbstract() bool { return m.Flags&classfile.AccAbstract != 0 }

// Key returns the name+descriptor key used for lookup.
func (m *Method) Key() string { return m.Name + m.Desc }

// String renders Class.method(desc).
func (m *Method) String() string { return m.Class.Name + "." + m.Name + m.Desc }

// Field is a runtime field.
type Field struct {
	Class      *Class
	Name, Desc string
	Flags      uint16

	// Offset is the instance slot index assigned by the declaring
	// class's FieldLayout; -1 for static fields.
	Offset int
}

// IsStatic reports the static flag.
func (f *Field) IsStatic() bool { return f.Flags&classfile.AccStatic != 0 }

// RTConst is a runtime constant pool entry with resolution caches.
type RTConst struct {
	Tag classfile.ConstTag

	Int    int32
	Long   int64
	Float  float32
	Double float64
	Str    string // Utf8 / String value / Class name

	// For member refs.
	ClassName  string
	MemberName string
	MemberDesc string

	// Caches filled on first resolution.
	ResolvedClass  *Class
	ResolvedMethod *Method
	ResolvedField  *Field
	StringObj      *Object
}

// buildRuntime converts a parsed class file into a runtime Class
// (without linking the hierarchy — the loader does that).
func buildRuntime(cf *classfile.ClassFile) (*Class, error) {
	c := &Class{
		Name:        cf.Name(),
		File:        cf,
		Flags:       cf.Flags,
		Statics:     make(map[string]Slot),
		methodCache: make(map[methodKey]*Method),
	}
	// Runtime constant pool.
	c.CP = make([]RTConst, len(cf.ConstPool))
	for i := 1; i < len(cf.ConstPool); i++ {
		src := &cf.ConstPool[i]
		dst := &c.CP[i]
		dst.Tag = src.Tag
		switch src.Tag {
		case classfile.TagUtf8:
			dst.Str = src.Utf8
		case classfile.TagInteger:
			dst.Int = src.Int
		case classfile.TagFloat:
			dst.Float = src.Float
		case classfile.TagLong:
			dst.Long = src.Long
		case classfile.TagDouble:
			dst.Double = src.Double
		case classfile.TagClass:
			n, err := cf.ClassNameAt(uint16(i))
			if err != nil {
				return nil, err
			}
			dst.Str = n
		case classfile.TagString:
			s, err := cf.StringAt(uint16(i))
			if err != nil {
				return nil, err
			}
			dst.Str = s
		case classfile.TagFieldref, classfile.TagMethodref, classfile.TagInterfaceMethodref:
			cls, name, desc, err := cf.RefAt(uint16(i))
			if err != nil {
				return nil, err
			}
			dst.ClassName, dst.MemberName, dst.MemberDesc = cls, name, desc
		}
	}
	for i := range cf.Fields {
		fm := &cf.Fields[i]
		c.Fields = append(c.Fields, &Field{
			Class:  c,
			Name:   cf.MemberName(fm),
			Desc:   cf.MemberDesc(fm),
			Flags:  fm.Flags,
			Offset: -1, // assigned by Layout at link time
		})
	}
	for i := range cf.Methods {
		mm := &cf.Methods[i]
		m := &Method{
			Class: c,
			Name:  cf.MemberName(mm),
			Desc:  cf.MemberDesc(mm),
			Flags: mm.Flags,
		}
		code, err := cf.CodeOf(mm)
		if err != nil {
			return nil, err
		}
		m.Code = code
		params, ret, err := classfile.ParseMethodDesc(m.Desc)
		if err != nil {
			return nil, err
		}
		m.ParamDescs = params
		m.RetDesc = ret
		for _, p := range params {
			m.ArgSlots += classfile.SlotCount(p)
		}
		c.Methods = append(c.Methods, m)
	}
	// Default static field values.
	for _, f := range c.Fields {
		if f.IsStatic() {
			c.Statics[f.Name] = zeroSlot(f.Desc)
		}
	}
	return c, nil
}

// methodKey keys Class.methodCache without building name+desc.
type methodKey struct{ name, desc string }

// FindMethod resolves name+desc against this class, walking
// superclasses and then interfaces; results are cached.
func (c *Class) FindMethod(name, desc string) *Method {
	key := methodKey{name, desc}
	if m, ok := c.methodCache[key]; ok {
		return m
	}
	var find func(k *Class) *Method
	find = func(k *Class) *Method {
		for k2 := k; k2 != nil; k2 = k2.Super {
			for _, m := range k2.Methods {
				if m.Name == name && m.Desc == desc {
					return m
				}
			}
		}
		for k2 := k; k2 != nil; k2 = k2.Super {
			for _, i := range k2.Interfaces {
				if m := find(i); m != nil {
					return m
				}
			}
		}
		return nil
	}
	m := find(c)
	if c.methodCache == nil {
		c.methodCache = make(map[methodKey]*Method)
	}
	c.methodCache[key] = m
	return m
}

// FindField resolves a field by name, walking the hierarchy.
func (c *Class) FindField(name string) *Field {
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Fields {
			if f.Name == name {
				return f
			}
		}
		for _, i := range k.Interfaces {
			if f := i.FindField(name); f != nil {
				return f
			}
		}
	}
	return nil
}

// statics returns the Statics map of the class declaring the field.
func (c *Class) staticsOf(name string) (map[string]Slot, error) {
	for k := c; k != nil; k = k.Super {
		if _, ok := k.Statics[name]; ok {
			return k.Statics, nil
		}
		for _, i := range k.Interfaces {
			if s, err := i.staticsOf(name); err == nil {
				return s, nil
			}
		}
	}
	return nil, fmt.Errorf("jvm: no static field %s in %s", name, c.Name)
}

// SubclassOf reports whether c is o or a subclass/implementor of o.
func (c *Class) SubclassOf(o *Class) bool {
	for k := c; k != nil; k = k.Super {
		if k == o {
			return true
		}
		for _, i := range k.Interfaces {
			if i.SubclassOf(o) {
				return true
			}
		}
	}
	return false
}

// Clinit returns the class initializer, if any.
func (c *Class) Clinit() *Method {
	for _, m := range c.Methods {
		if m.Name == "<clinit>" {
			return m
		}
	}
	return nil
}
