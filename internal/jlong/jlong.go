// Package jlong implements 64-bit two's-complement integers in software,
// using a pair of 32-bit halves.
//
// The Doppio paper (§8, "Numeric support") notes that JavaScript has no
// 64-bit integer type, so DoppioJVM carries "a comprehensive software
// implementation of 64-bit integers" for the JVM long type, and that it
// is "extremely slow when compared to normal numeric operations". This
// package is a faithful port of that representation: every operation is
// carried out on 32-bit halves exactly as a JavaScript implementation
// must, so that the DoppioJVM engine pays the same algorithmic costs.
//
// The native baseline engine uses Go's int64 directly; the two agree bit
// for bit (see the property tests), which is what lets the benchmark
// comparison isolate representation cost.
package jlong

import (
	"fmt"
	"math"
)

// Long is a 64-bit two's-complement integer stored as two 32-bit halves.
// The zero value is the number 0.
type Long struct {
	// Hi holds bits 32..63, Lo holds bits 0..31. Both are stored as
	// uint32 bit patterns; the sign lives in Hi's top bit.
	Hi, Lo uint32
}

// Common constants.
var (
	Zero   = Long{0, 0}
	One    = Long{0, 1}
	NegOne = Long{0xFFFFFFFF, 0xFFFFFFFF}
	Min    = Long{0x80000000, 0} // -2^63
	Max    = Long{0x7FFFFFFF, 0xFFFFFFFF}
)

// FromInt64 converts a Go int64 to a Long.
func FromInt64(v int64) Long {
	u := uint64(v)
	return Long{Hi: uint32(u >> 32), Lo: uint32(u)}
}

// FromInt32 sign-extends a 32-bit integer into a Long (the JVM i2l
// instruction).
func FromInt32(v int32) Long {
	var hi uint32
	if v < 0 {
		hi = 0xFFFFFFFF
	}
	return Long{Hi: hi, Lo: uint32(v)}
}

// FromFloat64 converts a float64 to a Long using JVM d2l semantics:
// NaN maps to 0, values beyond the representable range saturate.
func FromFloat64(f float64) Long {
	switch {
	case math.IsNaN(f):
		return Zero
	case f >= 9.223372036854776e18: // >= 2^63
		return Max
	case f <= -9.223372036854776e18:
		return Min
	}
	neg := f < 0
	if neg {
		f = -f
	}
	f = math.Trunc(f)
	hi := uint32(math.Trunc(f / 4294967296.0))
	lo := uint32(math.Mod(f, 4294967296.0))
	l := Long{Hi: hi, Lo: lo}
	if neg {
		l = l.Neg()
	}
	return l
}

// Int64 converts the Long to a Go int64.
func (l Long) Int64() int64 {
	return int64(uint64(l.Hi)<<32 | uint64(l.Lo))
}

// Float64 converts the Long to the nearest float64 (the JVM l2d
// instruction). Large magnitudes lose precision exactly as in JS.
func (l Long) Float64() float64 {
	if l.IsNeg() {
		if l == Min {
			return -9.223372036854776e18
		}
		return -l.Neg().Float64()
	}
	return float64(l.Hi)*4294967296.0 + float64(l.Lo)
}

// Int32 truncates the Long to its low 32 bits (the JVM l2i instruction).
func (l Long) Int32() int32 { return int32(l.Lo) }

// IsZero reports whether the Long is zero.
func (l Long) IsZero() bool { return l.Hi == 0 && l.Lo == 0 }

// IsNeg reports whether the Long is negative.
func (l Long) IsNeg() bool { return l.Hi&0x80000000 != 0 }

// Neg returns the two's-complement negation.
func (l Long) Neg() Long {
	return l.Not().Add(One)
}

// Not returns the bitwise complement.
func (l Long) Not() Long {
	return Long{Hi: ^l.Hi, Lo: ^l.Lo}
}

// Add returns l + o, wrapping on overflow.
//
// The addition is performed on 16-bit limbs, exactly as a JavaScript
// implementation (which has no 32-bit carry flag) must do it.
func (l Long) Add(o Long) Long {
	a48 := l.Hi >> 16
	a32 := l.Hi & 0xFFFF
	a16 := l.Lo >> 16
	a00 := l.Lo & 0xFFFF

	b48 := o.Hi >> 16
	b32 := o.Hi & 0xFFFF
	b16 := o.Lo >> 16
	b00 := o.Lo & 0xFFFF

	c00 := a00 + b00
	c16 := a16 + b16 + c00>>16
	c00 &= 0xFFFF
	c32 := a32 + b32 + c16>>16
	c16 &= 0xFFFF
	c48 := (a48 + b48 + c32>>16) & 0xFFFF
	c32 &= 0xFFFF
	return Long{Hi: c48<<16 | c32, Lo: c16<<16 | c00}
}

// Sub returns l - o, wrapping on overflow.
func (l Long) Sub(o Long) Long { return l.Add(o.Neg()) }

// Mul returns l * o, wrapping on overflow, computed on 16-bit limbs.
func (l Long) Mul(o Long) Long {
	if l.IsZero() || o.IsZero() {
		return Zero
	}
	a48 := l.Hi >> 16
	a32 := l.Hi & 0xFFFF
	a16 := l.Lo >> 16
	a00 := l.Lo & 0xFFFF

	b48 := o.Hi >> 16
	b32 := o.Hi & 0xFFFF
	b16 := o.Lo >> 16
	b00 := o.Lo & 0xFFFF

	c00 := a00 * b00
	c16 := c00 >> 16
	c00 &= 0xFFFF
	c16 += a16 * b00
	c32 := c16 >> 16
	c16 &= 0xFFFF
	c16 += a00 * b16
	c32 += c16 >> 16
	c16 &= 0xFFFF
	c32 += a32 * b00
	c48 := c32 >> 16
	c32 &= 0xFFFF
	c32 += a16 * b16
	c48 += c32 >> 16
	c32 &= 0xFFFF
	c32 += a00 * b32
	c48 += c32 >> 16
	c32 &= 0xFFFF
	c48 += a48*b00 + a32*b16 + a16*b32 + a00*b48
	c48 &= 0xFFFF
	return Long{Hi: c48<<16 | c32, Lo: c16<<16 | c00}
}

// Div returns the quotient l / o truncated toward zero (JVM ldiv).
// Division by zero panics with ErrDivByZero; MinValue / -1 wraps to
// MinValue, matching the JVM.
func (l Long) Div(o Long) Long {
	if o.IsZero() {
		panic(ErrDivByZero)
	}
	if l.IsZero() {
		return Zero
	}
	if l == Min {
		if o == One || o == NegOne {
			return Min
		}
		if o == Min {
			return One
		}
		// |l| cannot be represented; peel one bit off, divide, refine.
		half := l.Shr(1)
		approx := half.Div(o).Shl(1)
		if approx.IsZero() {
			if o.IsNeg() {
				return One
			}
			return NegOne
		}
		rem := l.Sub(o.Mul(approx))
		return approx.Add(rem.Div(o))
	}
	if o == Min {
		return Zero
	}
	if l.IsNeg() {
		if o.IsNeg() {
			return l.Neg().Div(o.Neg())
		}
		return l.Neg().Div(o).Neg()
	}
	if o.IsNeg() {
		return l.Div(o.Neg()).Neg()
	}
	// Both operands positive: estimate with float math and correct,
	// exactly as the JS implementation does.
	res := Zero
	rem := l
	for rem.Cmp(o) >= 0 {
		approx := math.Max(1, math.Floor(rem.Float64()/o.Float64()))
		// Adjust the approximation downward until it is not too large.
		logf := math.Ceil(math.Log2(approx))
		var delta float64
		if logf <= 48 {
			delta = 1
		} else {
			delta = math.Pow(2, logf-48)
		}
		approxL := FromFloat64(approx)
		approxRem := approxL.Mul(o)
		for approxRem.IsNeg() || approxRem.Cmp(rem) > 0 {
			approx -= delta
			approxL = FromFloat64(approx)
			approxRem = approxL.Mul(o)
		}
		if approxL.IsZero() {
			approxL = One
		}
		res = res.Add(approxL)
		rem = rem.Sub(approxL.Mul(o))
	}
	return res
}

// Rem returns the remainder l % o (JVM lrem), with the sign of l.
func (l Long) Rem(o Long) Long {
	return l.Sub(l.Div(o).Mul(o))
}

// And returns the bitwise AND.
func (l Long) And(o Long) Long { return Long{Hi: l.Hi & o.Hi, Lo: l.Lo & o.Lo} }

// Or returns the bitwise OR.
func (l Long) Or(o Long) Long { return Long{Hi: l.Hi | o.Hi, Lo: l.Lo | o.Lo} }

// Xor returns the bitwise XOR.
func (l Long) Xor(o Long) Long { return Long{Hi: l.Hi ^ o.Hi, Lo: l.Lo ^ o.Lo} }

// Shl returns l << n. Only the low 6 bits of n are used (JVM lshl).
func (l Long) Shl(n uint) Long {
	n &= 63
	switch {
	case n == 0:
		return l
	case n < 32:
		return Long{Hi: l.Hi<<n | l.Lo>>(32-n), Lo: l.Lo << n}
	default:
		return Long{Hi: l.Lo << (n - 32), Lo: 0}
	}
}

// Shr returns the arithmetic right shift l >> n (JVM lshr).
func (l Long) Shr(n uint) Long {
	n &= 63
	switch {
	case n == 0:
		return l
	case n < 32:
		return Long{Hi: uint32(int32(l.Hi) >> n), Lo: l.Hi<<(32-n) | l.Lo>>n}
	default:
		return Long{Hi: uint32(int32(l.Hi) >> 31), Lo: uint32(int32(l.Hi) >> (n - 32))}
	}
}

// Ushr returns the logical right shift l >>> n (JVM lushr).
func (l Long) Ushr(n uint) Long {
	n &= 63
	switch {
	case n == 0:
		return l
	case n < 32:
		return Long{Hi: l.Hi >> n, Lo: l.Hi<<(32-n) | l.Lo>>n}
	case n == 32:
		return Long{Hi: 0, Lo: l.Hi}
	default:
		return Long{Hi: 0, Lo: l.Hi >> (n - 32)}
	}
}

// Cmp compares l and o as signed integers, returning -1, 0 or +1
// (the JVM lcmp instruction).
func (l Long) Cmp(o Long) int {
	if l == o {
		return 0
	}
	ln, on := l.IsNeg(), o.IsNeg()
	if ln && !on {
		return -1
	}
	if !ln && on {
		return 1
	}
	// Same sign: unsigned comparison of the raw halves decides.
	if l.Hi != o.Hi {
		if l.Hi < o.Hi {
			return -1
		}
		return 1
	}
	if l.Lo < o.Lo {
		return -1
	}
	return 1
}

// String renders the Long in decimal.
func (l Long) String() string {
	return fmt.Sprintf("%d", l.Int64())
}

// Parse parses a decimal string (with optional leading '-') into a Long.
func Parse(s string) (Long, error) {
	if s == "" {
		return Zero, fmt.Errorf("jlong: empty string")
	}
	neg := false
	i := 0
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		i++
		if i == len(s) {
			return Zero, fmt.Errorf("jlong: invalid number %q", s)
		}
	}
	ten := FromInt32(10)
	acc := Zero
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return Zero, fmt.Errorf("jlong: invalid digit %q in %q", c, s)
		}
		acc = acc.Mul(ten).Add(FromInt32(int32(c - '0')))
	}
	if neg {
		acc = acc.Neg()
	}
	return acc, nil
}

// ErrDivByZero is the panic value raised on division by zero; the JVM
// engine recovers it and throws java/lang/ArithmeticException.
var ErrDivByZero = fmt.Errorf("jlong: division by zero")
