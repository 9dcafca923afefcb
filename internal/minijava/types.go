package minijava

import "strings"

// TypeKind classifies a semantic type.
type TypeKind int

// Type kinds.
const (
	KVoid TypeKind = iota
	KBool
	KByte
	KChar
	KShort
	KInt
	KLong
	KFloat
	KDouble
	KRef   // class or interface
	KArray // array of Elem
	KNull  // the type of the null literal
)

// Type is a semantic type. Primitives are singletons; refs carry their
// class symbol; arrays carry their element type.
type Type struct {
	Kind TypeKind
	Cls  *ClassSym
	Elem *Type
}

// The primitive type singletons.
var (
	TVoid   = &Type{Kind: KVoid}
	TBool   = &Type{Kind: KBool}
	TByte   = &Type{Kind: KByte}
	TChar   = &Type{Kind: KChar}
	TShort  = &Type{Kind: KShort}
	TInt    = &Type{Kind: KInt}
	TLong   = &Type{Kind: KLong}
	TFloat  = &Type{Kind: KFloat}
	TDouble = &Type{Kind: KDouble}
	TNull   = &Type{Kind: KNull}
)

// ArrayOf returns the array type with the given element type.
func ArrayOf(elem *Type) *Type { return &Type{Kind: KArray, Elem: elem} }

// IsNumeric reports whether t is a numeric primitive (char included,
// as in Java's numeric promotion).
func (t *Type) IsNumeric() bool {
	switch t.Kind {
	case KByte, KChar, KShort, KInt, KLong, KFloat, KDouble:
		return true
	}
	return false
}

// IsIntegral reports whether t is an integral primitive.
func (t *Type) IsIntegral() bool {
	switch t.Kind {
	case KByte, KChar, KShort, KInt, KLong:
		return true
	}
	return false
}

// IsRef reports whether t is a reference type (class, array or null).
func (t *Type) IsRef() bool {
	return t.Kind == KRef || t.Kind == KArray || t.Kind == KNull
}

// Wide reports whether t occupies two slots.
func (t *Type) Wide() bool { return t.Kind == KLong || t.Kind == KDouble }

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KRef:
		return t.Cls == o.Cls
	case KArray:
		return t.Elem.Equal(o.Elem)
	}
	return true
}

// Desc returns the JVM type descriptor.
func (t *Type) Desc() string {
	switch t.Kind {
	case KVoid:
		return "V"
	case KBool:
		return "Z"
	case KByte:
		return "B"
	case KChar:
		return "C"
	case KShort:
		return "S"
	case KInt:
		return "I"
	case KLong:
		return "J"
	case KFloat:
		return "F"
	case KDouble:
		return "D"
	case KRef:
		return "L" + t.Cls.Name + ";"
	case KArray:
		return "[" + t.Elem.Desc()
	}
	return "?"
}

// String renders the type for diagnostics.
func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KBool:
		return "boolean"
	case KByte:
		return "byte"
	case KChar:
		return "char"
	case KShort:
		return "short"
	case KInt:
		return "int"
	case KLong:
		return "long"
	case KFloat:
		return "float"
	case KDouble:
		return "double"
	case KRef:
		return strings.ReplaceAll(t.Cls.Name, "/", ".")
	case KArray:
		return t.Elem.String() + "[]"
	case KNull:
		return "null"
	}
	return "?"
}

// ClassSym is a resolved class or interface.
type ClassSym struct {
	Name        string // internal name, e.g. "java/lang/String"
	Decl        *ClassDecl
	File        *File // for import resolution
	Super       *ClassSym
	Interfaces  []*ClassSym
	Fields      []*FieldSym
	Methods     []*MethodSym // includes constructors and <clinit>
	IsInterface bool
	IsAbstract  bool

	// ClinitMaxLocals is the local-slot requirement of the static
	// initializer blocks (set by the checker).
	ClinitMaxLocals int

	typ *Type
}

// Type returns the reference type for this class.
func (c *ClassSym) Type() *Type {
	if c.typ == nil {
		c.typ = &Type{Kind: KRef, Cls: c}
	}
	return c.typ
}

// Implements reports whether c (transitively) implements iface.
func (c *ClassSym) Implements(iface *ClassSym) bool {
	for k := c; k != nil; k = k.Super {
		for _, i := range k.Interfaces {
			if i == iface || i.Implements(iface) {
				return true
			}
		}
	}
	return false
}

// FieldSym is a resolved field.
type FieldSym struct {
	Owner  *ClassSym
	Name   string
	Type   *Type
	Static bool
	Final  bool
	Decl   *FieldDecl
}

// MethodSym is a resolved method or constructor.
type MethodSym struct {
	Owner        *ClassSym
	Name         string
	Params       []*Type
	Ret          *Type
	Static       bool
	Native       bool
	Abstract     bool
	Synchronized bool
	Decl         *MethodDecl
	// MaxLocals is the local-slot requirement of the body (set by the
	// checker).
	MaxLocals int
}

// Descriptor returns the JVM method descriptor.
func (m *MethodSym) Descriptor() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range m.Params {
		b.WriteString(p.Desc())
	}
	b.WriteByte(')')
	b.WriteString(m.Ret.Desc())
	return b.String()
}

// LocalInfo is a resolved local variable or parameter.
type LocalInfo struct {
	Name string
	Type *Type
	Slot int
}

// Program is the result of semantic analysis over a whole compile set.
type Program struct {
	Classes map[string]*ClassSym // by internal name
	// Order preserves declaration order for deterministic output.
	Order []*ClassSym
}

// Lookup finds a class by internal name.
func (p *Program) Lookup(internal string) *ClassSym { return p.Classes[internal] }

// lookupField walks the hierarchy for a field.
func lookupField(c *ClassSym, name string) *FieldSym {
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Fields {
			if f.Name == name {
				return f
			}
		}
		// Interface constants.
		for _, i := range k.Interfaces {
			if f := lookupField(i, name); f != nil {
				return f
			}
		}
	}
	return nil
}

// methodsNamed collects all methods with the given name visible on c
// (walking superclasses and interfaces), nearest first.
func methodsNamed(c *ClassSym, name string) []*MethodSym {
	var out []*MethodSym
	seen := make(map[string]bool) // descriptor+name dedup (overrides)
	var visit func(k *ClassSym)
	visit = func(k *ClassSym) {
		if k == nil {
			return
		}
		for _, m := range k.Methods {
			if m.Name != name {
				continue
			}
			key := m.Name + m.Descriptor()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, m)
		}
		visit(k.Super)
		for _, i := range k.Interfaces {
			visit(i)
		}
	}
	visit(c)
	return out
}
