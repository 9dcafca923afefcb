package jvm

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"doppio/internal/classfile"
	"doppio/internal/core"
	"doppio/internal/jlong"
)

// retAddr is the returnAddress type pushed by jsr and consumed by ret.
type retAddr int

// --- DFrame stack helpers (JS value conventions) ---

func (f *DFrame) push(v interface{}) { f.stack = append(f.stack, v) }

func (f *DFrame) pop() interface{} {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *DFrame) peek() interface{} { return f.stack[len(f.stack)-1] }

// boxedNums preboxes small JS numbers. Every Doppio stack slot is an
// interface{}, so boxing a float64 allocates; integer results
// overwhelmingly land in a small range (loop counters, flags, field
// values), and serving those from a static table removes most of the
// engine's per-push allocations.
var boxedNums [4096]interface{}

const boxedBase = -512

func init() {
	for i := range boxedNums {
		boxedNums[i] = float64(i + boxedBase)
	}
}

// boxI boxes an int32 as a JS number, using the preboxed cache for
// small values.
func boxI(v int32) interface{} {
	if i := int(v) - boxedBase; i >= 0 && i < len(boxedNums) {
		return boxedNums[i]
	}
	return float64(v)
}

func (f *DFrame) pushI(v int32)      { f.push(boxI(v)) }
func (f *DFrame) popI() int32        { return jsInt(f.pop()) }
func (f *DFrame) pushJ(v jlong.Long) { f.push(v); f.push(nil) }
func (f *DFrame) popJ() jlong.Long {
	f.pop()
	return f.pop().(jlong.Long)
}
func (f *DFrame) pushF(v float64) { f.push(jsFloat(v)) }
func (f *DFrame) popF() float64   { return f.pop().(float64) }
func (f *DFrame) pushD(v float64) { f.push(v); f.push(nil) }
func (f *DFrame) popD() float64 {
	f.pop()
	return f.pop().(float64)
}
func (f *DFrame) pushR(o *Object) {
	if o == nil {
		f.push(nil)
		return
	}
	f.push(o)
}
func (f *DFrame) popR() *Object {
	o, _ := f.pop().(*Object)
	return o
}

// dSlotFromValue converts a JS value into a field Slot per descriptor.
func dSlotFromValue(desc string, v interface{}) Slot {
	switch desc {
	case "J":
		return Slot{N: v.(jlong.Long).Int64()}
	case "F", "D":
		return FloatSlot(v.(float64))
	case "Z", "B", "C", "S", "I":
		return Slot{N: int64(jsInt(v))}
	default:
		o, _ := v.(*Object)
		return Slot{R: o}
	}
}

// dValueFromSlot converts a field Slot into a JS value per descriptor.
func dValueFromSlot(desc string, s Slot) interface{} {
	switch desc {
	case "J":
		return jlong.FromInt64(s.N)
	case "F", "D":
		return SlotFloat(s)
	case "Z", "B", "C", "S", "I":
		return boxI(int32(s.N))
	default:
		if s.R == nil {
			return nil
		}
		return s.R
	}
}

// decodeArgsD pops a native call's arguments off a Doppio frame.
func decodeArgsD(m *Method, f *DFrame, hasRecv bool) (recv *Object, args []Value) {
	total := m.ArgSlots
	if hasRecv {
		total++
	}
	base := len(f.stack) - total
	idx := base
	if hasRecv {
		recv, _ = f.stack[idx].(*Object)
		idx++
	}
	args = make([]Value, len(m.ParamDescs))
	for i, d := range m.ParamDescs {
		v := f.stack[idx]
		switch d {
		case "J":
			args[i] = v.(jlong.Long).Int64()
			idx += 2
		case "F":
			args[i] = float32(v.(float64))
			idx++
		case "D":
			args[i] = v.(float64)
			idx += 2
		case "Z", "B", "C", "S", "I":
			args[i] = jsInt(v)
			idx++
		default:
			if o, ok := v.(*Object); ok {
				args[i] = o
			} else {
				args[i] = nil
			}
			idx++
		}
	}
	f.stack = f.stack[:base]
	return recv, args
}

// encodePushD pushes a decoded native result as a JS value.
func encodePushD(f *DFrame, desc string, v Value) {
	switch desc {
	case "V", "":
	case "J":
		f.pushJ(jlong.FromInt64(v.(int64)))
	case "F":
		f.pushF(float64(v.(float32)))
	case "D":
		f.pushD(v.(float64))
	case "Z", "B", "C", "S", "I":
		f.pushI(v.(int32))
	default:
		if v == nil {
			f.pushR(nil)
		} else {
			f.pushR(v.(*Object))
		}
	}
}

func (d *DThread) applyDeposit() {
	d.depReady = false
	if d.depThrown != nil {
		ex := d.depThrown
		d.depValue, d.depThrown = nil, nil
		d.vm.unwindD(d, ex)
		return
	}
	if len(d.frames) == 0 {
		return
	}
	f := d.frames[len(d.frames)-1]
	encodePushD(f, d.depRet, d.depValue)
	d.depValue = nil
}

// throwD constructs and unwinds a VM-generated exception.
func (vm *DoppioVM) throwD(d *DThread, class, msg string) {
	vm.unwindD(d, vm.MakeThrowable(class, msg))
}

// unwindD walks the explicit frame array for a handler (§6.6:
// "DOPPIOJVM emulates JVM exception handling semantics by iterating
// through its virtual stack representation until it finds a stack
// frame with an applicable exception handler, or until it empties the
// stack and exits with an error").
func (vm *DoppioVM) unwindD(d *DThread, ex *Object) {
	for len(d.frames) > 0 {
		f := d.frames[len(d.frames)-1]
		if f.m.Code != nil {
			for _, e := range f.m.Code.Exceptions {
				if f.pc < int(e.StartPC) || f.pc >= int(e.EndPC) {
					continue
				}
				if e.CatchType != 0 {
					catchName := f.m.Class.CP[e.CatchType].Str
					// A class that was never loaded can have no
					// instances, so an unloaded catch type never
					// matches.
					cc := vm.Reg.Get(catchName)
					if cc == nil || !ex.Class.SubclassOf(cc) {
						continue
					}
				}
				f.pc = int(e.HandlerPC)
				f.stack = f.stack[:0]
				f.pushR(ex)
				return
			}
		}
		f.span.End()
		d.frames = d.frames[:len(d.frames)-1]
	}
	fmt.Fprintf(vm.stderr, "Exception in thread %d %s\n%s", d.id, vm.describeThrowable(ex), traceOf(ex))
	if vm.Uncaught == nil {
		vm.Uncaught = ex
	}
	d.die()
}

func (d *DThread) die() {
	if d.dead {
		return
	}
	d.dead = true
	for _, f := range d.frames {
		f.span.End()
	}
	d.frames = nil
	for _, j := range d.joiners {
		j()
	}
	d.joiners = nil
}

// methodReturnD pops the top frame, moving the return value.
func (d *DThread) methodReturnD(desc string) {
	f := d.frames[len(d.frames)-1]
	var v interface{}
	wide := false
	switch desc {
	case "V":
	case "J", "D":
		f.pop()
		v = f.pop()
		wide = true
	default:
		v = f.pop()
	}
	f.span.End()
	d.frames = d.frames[:len(d.frames)-1]
	if len(d.frames) == 0 {
		d.die()
		return
	}
	d.recycleFrame(f)
	caller := d.frames[len(d.frames)-1]
	if desc != "V" {
		caller.push(v)
		if wide {
			caller.push(nil)
		}
	}
}

// Run executes the thread until it finishes, yields, or blocks — one
// timeslice of the Doppio execution environment.
func (d *DThread) Run(ct *core.Thread) core.RunResult {
	vm := d.vm
	vm.cur = d
	d.blocked = false
	if d.depReady {
		d.applyDeposit()
	}
	for {
		if d.dead || vm.exited {
			d.die()
			return core.Done
		}
		if len(d.frames) == 0 {
			d.die()
			return core.Done
		}
		f := d.frames[len(d.frames)-1]
		code := f.m.Code.Bytecode
		if f.pc >= len(code) {
			d.methodReturnD("V")
			if ct.CheckSuspend() {
				return core.Yield
			}
			continue
		}
		qt := f.m.quick
		if qt != nil && qt.Ops[f.pc].Kind != QNone {
			// A quickened pc: hand the whole run of consecutive
			// side-table entries to the inner loop, which does its own
			// per-bytecode bookkeeping.
			if res := d.runQuickD(ct, f, qt); res != runContinue {
				return res.result()
			}
			continue
		}
		vm.Instructions++
		// Engine tax: model the relative speed of this browser's JS
		// engine with extra dispatch work per bytecode.
		for k := 0; k < vm.engineTax; k++ {
			vm.taxSink++
		}
		op := code[f.pc]
		if tel := vm.tel; tel != nil {
			tel.opCounts[op]++
		}
		if vm.pairs != nil && (qt == nil || !qt.fused) {
			// Pair attribution only feeds the fusion pass; once a
			// method is fused there is nothing left to decide.
			vm.pairs.note(d.prevOp, op)
			d.prevOp = op
		}
		npc := f.pc + classfile.InstrLen(code, f.pc)

		switch op {
		case classfile.OpNop:
		case classfile.OpAconstNull:
			f.pushR(nil)
		case classfile.OpIconstM1, classfile.OpIconst0, classfile.OpIconst1,
			classfile.OpIconst2, classfile.OpIconst3, classfile.OpIconst4, classfile.OpIconst5:
			f.pushI(int32(op) - classfile.OpIconst0)
		case classfile.OpLconst0:
			f.pushJ(jlong.Zero)
		case classfile.OpLconst1:
			f.pushJ(jlong.One)
		case classfile.OpFconst0:
			f.pushF(0)
		case classfile.OpFconst1:
			f.pushF(1)
		case classfile.OpFconst2:
			f.pushF(2)
		case classfile.OpDconst0:
			f.pushD(0)
		case classfile.OpDconst1:
			f.pushD(1)
		case classfile.OpBipush:
			f.pushI(int32(int8(code[f.pc+1])))
		case classfile.OpSipush:
			f.pushI(int32(i16(code, f.pc+1)))

		case classfile.OpLdc, classfile.OpLdcW, classfile.OpLdc2W:
			var idx uint16
			if op == classfile.OpLdc {
				idx = uint16(code[f.pc+1])
			} else {
				idx = u16(code, f.pc+1)
			}
			rc := &f.m.Class.CP[idx]
			switch rc.Tag {
			case classfile.TagInteger:
				f.pushI(rc.Int)
			case classfile.TagFloat:
				f.pushF(float64(rc.Float))
			case classfile.TagLong:
				f.pushJ(jlong.FromInt64(rc.Long))
			case classfile.TagDouble:
				f.pushD(rc.Double)
			case classfile.TagString:
				if rc.StringObj == nil {
					rc.StringObj = vm.Intern(rc.Str)
				}
				f.pushR(rc.StringObj)
			case classfile.TagClass:
				cls := vm.Reg.Get(rc.Str)
				if cls == nil {
					if res := d.loadAndRetry(ct, rc.Str); res != runContinue {
						return res.result()
					}
					continue
				}
				f.pushR(vm.ClassMirror(cls))
			}
			if vm.quicken && (rc.Tag == classfile.TagInteger || rc.Tag == classfile.TagFloat || rc.Tag == classfile.TagString) {
				// An int, float or string constant never changes: the
				// value just pushed (the interned string itself, so
				// identity holds) becomes the site's QConst.
				installResolvedQuick(f.m, f.pc, QuickOp{Kind: QConst, K: f.peek()}, &vm.qstats)
			}

		case classfile.OpIload, classfile.OpFload, classfile.OpAload:
			f.push(f.locals[code[f.pc+1]])
		case classfile.OpLload, classfile.OpDload:
			f.push(f.locals[code[f.pc+1]])
			f.push(nil)
		case classfile.OpIload0, classfile.OpIload1, classfile.OpIload2, classfile.OpIload3:
			f.push(f.locals[op-classfile.OpIload0])
		case classfile.OpLload0, classfile.OpLload1, classfile.OpLload2, classfile.OpLload3:
			f.push(f.locals[op-classfile.OpLload0])
			f.push(nil)
		case classfile.OpFload0, classfile.OpFload1, classfile.OpFload2, classfile.OpFload3:
			f.push(f.locals[op-classfile.OpFload0])
		case classfile.OpDload0, classfile.OpDload1, classfile.OpDload2, classfile.OpDload3:
			f.push(f.locals[op-classfile.OpDload0])
			f.push(nil)
		case classfile.OpAload0, classfile.OpAload1, classfile.OpAload2, classfile.OpAload3:
			f.push(f.locals[op-classfile.OpAload0])

		case classfile.OpIstore, classfile.OpFstore, classfile.OpAstore:
			f.locals[code[f.pc+1]] = f.pop()
		case classfile.OpLstore, classfile.OpDstore:
			f.pop()
			f.locals[code[f.pc+1]] = f.pop()
		case classfile.OpIstore0, classfile.OpIstore1, classfile.OpIstore2, classfile.OpIstore3:
			f.locals[op-classfile.OpIstore0] = f.pop()
		case classfile.OpLstore0, classfile.OpLstore1, classfile.OpLstore2, classfile.OpLstore3:
			f.pop()
			f.locals[op-classfile.OpLstore0] = f.pop()
		case classfile.OpFstore0, classfile.OpFstore1, classfile.OpFstore2, classfile.OpFstore3:
			f.locals[op-classfile.OpFstore0] = f.pop()
		case classfile.OpDstore0, classfile.OpDstore1, classfile.OpDstore2, classfile.OpDstore3:
			f.pop()
			f.locals[op-classfile.OpDstore0] = f.pop()
		case classfile.OpAstore0, classfile.OpAstore1, classfile.OpAstore2, classfile.OpAstore3:
			f.locals[op-classfile.OpAstore0] = f.pop()

		case classfile.OpIaload, classfile.OpLaload, classfile.OpFaload, classfile.OpDaload,
			classfile.OpAaload, classfile.OpBaload, classfile.OpCaload, classfile.OpSaload:
			idx := f.popI()
			arr := f.popR()
			if arr == nil {
				vm.throwD(d, "java/lang/NullPointerException", "array load")
				continue
			}
			if int(idx) < 0 || int(idx) >= arr.ArrayLen() {
				vm.throwD(d, "java/lang/ArrayIndexOutOfBoundsException", fmt.Sprint(idx))
				continue
			}
			switch a := arr.Arr.(type) {
			case []int32:
				f.pushI(a[idx])
			case []int64:
				f.pushJ(jlong.FromInt64(a[idx]))
			case []float32:
				f.pushF(float64(a[idx]))
			case []float64:
				f.pushD(a[idx])
			case []*Object:
				f.pushR(a[idx])
			case []int8:
				f.pushI(int32(a[idx]))
			case []uint16:
				f.pushI(int32(a[idx]))
			case []int16:
				f.pushI(int32(a[idx]))
			}

		case classfile.OpIastore, classfile.OpLastore, classfile.OpFastore, classfile.OpDastore,
			classfile.OpAastore, classfile.OpBastore, classfile.OpCastore, classfile.OpSastore:
			var vi int32
			var vj jlong.Long
			var vf float64
			var vd float64
			var vr *Object
			switch op {
			case classfile.OpLastore:
				vj = f.popJ()
			case classfile.OpFastore:
				vf = f.popF()
			case classfile.OpDastore:
				vd = f.popD()
			case classfile.OpAastore:
				vr = f.popR()
			default:
				vi = f.popI()
			}
			idx := f.popI()
			arr := f.popR()
			if arr == nil {
				vm.throwD(d, "java/lang/NullPointerException", "array store")
				continue
			}
			if int(idx) < 0 || int(idx) >= arr.ArrayLen() {
				vm.throwD(d, "java/lang/ArrayIndexOutOfBoundsException", fmt.Sprint(idx))
				continue
			}
			switch a := arr.Arr.(type) {
			case []int32:
				a[idx] = vi
			case []int64:
				a[idx] = vj.Int64()
			case []float32:
				a[idx] = float32(vf)
			case []float64:
				a[idx] = vd
			case []*Object:
				a[idx] = vr
			case []int8:
				a[idx] = int8(vi)
			case []uint16:
				a[idx] = uint16(vi)
			case []int16:
				a[idx] = int16(vi)
			}

		case classfile.OpPop:
			f.pop()
		case classfile.OpPop2:
			f.pop()
			f.pop()
		case classfile.OpDup:
			f.push(f.peek())
		case classfile.OpDupX1:
			v1 := f.pop()
			v2 := f.pop()
			f.push(v1)
			f.push(v2)
			f.push(v1)
		case classfile.OpDupX2:
			v1 := f.pop()
			v2 := f.pop()
			v3 := f.pop()
			f.push(v1)
			f.push(v3)
			f.push(v2)
			f.push(v1)
		case classfile.OpDup2:
			v1 := f.pop()
			v2 := f.pop()
			f.push(v2)
			f.push(v1)
			f.push(v2)
			f.push(v1)
		case classfile.OpDup2X1:
			v1 := f.pop()
			v2 := f.pop()
			v3 := f.pop()
			f.push(v2)
			f.push(v1)
			f.push(v3)
			f.push(v2)
			f.push(v1)
		case classfile.OpDup2X2:
			v1 := f.pop()
			v2 := f.pop()
			v3 := f.pop()
			v4 := f.pop()
			f.push(v2)
			f.push(v1)
			f.push(v4)
			f.push(v3)
			f.push(v2)
			f.push(v1)
		case classfile.OpSwap:
			v1 := f.pop()
			v2 := f.pop()
			f.push(v1)
			f.push(v2)

		// --- int arithmetic with JS |0 coercions ---
		case classfile.OpIadd:
			b := f.popI()
			a := f.popI()
			f.pushI(int32(int64(a) + int64(b)))
		case classfile.OpIsub:
			b := f.popI()
			a := f.popI()
			f.pushI(int32(int64(a) - int64(b)))
		case classfile.OpImul:
			b := f.popI()
			a := f.popI()
			f.pushI(int32(int64(a) * int64(b)))
		case classfile.OpIdiv:
			b := f.popI()
			a := f.popI()
			if b == 0 {
				vm.throwD(d, "java/lang/ArithmeticException", "/ by zero")
				continue
			}
			f.push(jsTruncDiv(float64(a), float64(b)))
		case classfile.OpIrem:
			b := f.popI()
			a := f.popI()
			if b == 0 {
				vm.throwD(d, "java/lang/ArithmeticException", "% by zero")
				continue
			}
			f.push(float64(int32(math.Mod(float64(a), float64(b)))))
		case classfile.OpIneg:
			f.pushI(int32(-int64(f.popI())))

		// --- long arithmetic on software longs (§8) ---
		case classfile.OpLadd:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.Add(b))
		case classfile.OpLsub:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.Sub(b))
		case classfile.OpLmul:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.Mul(b))
		case classfile.OpLdiv:
			b := f.popJ()
			a := f.popJ()
			if b.IsZero() {
				vm.throwD(d, "java/lang/ArithmeticException", "/ by zero")
				continue
			}
			f.pushJ(a.Div(b))
		case classfile.OpLrem:
			b := f.popJ()
			a := f.popJ()
			if b.IsZero() {
				vm.throwD(d, "java/lang/ArithmeticException", "% by zero")
				continue
			}
			f.pushJ(a.Rem(b))
		case classfile.OpLneg:
			f.pushJ(f.popJ().Neg())

		// --- float/double arithmetic (JS numbers) ---
		case classfile.OpFadd:
			b := f.popF()
			a := f.popF()
			f.pushF(a + b)
		case classfile.OpFsub:
			b := f.popF()
			a := f.popF()
			f.pushF(a - b)
		case classfile.OpFmul:
			b := f.popF()
			a := f.popF()
			f.pushF(a * b)
		case classfile.OpFdiv:
			b := f.popF()
			a := f.popF()
			f.pushF(a / b)
		case classfile.OpFrem:
			b := f.popF()
			a := f.popF()
			f.pushF(jrem(a, b))
		case classfile.OpFneg:
			f.pushF(-f.popF())
		case classfile.OpDadd:
			b := f.popD()
			a := f.popD()
			f.pushD(a + b)
		case classfile.OpDsub:
			b := f.popD()
			a := f.popD()
			f.pushD(a - b)
		case classfile.OpDmul:
			b := f.popD()
			a := f.popD()
			f.pushD(a * b)
		case classfile.OpDdiv:
			b := f.popD()
			a := f.popD()
			f.pushD(a / b)
		case classfile.OpDrem:
			b := f.popD()
			a := f.popD()
			f.pushD(jrem(a, b))
		case classfile.OpDneg:
			f.pushD(-f.popD())

		// --- shifts and bitwise (|0 world) ---
		case classfile.OpIshl:
			b := f.popI()
			a := f.popI()
			f.pushI(a << (uint(b) & 31))
		case classfile.OpIshr:
			b := f.popI()
			a := f.popI()
			f.pushI(a >> (uint(b) & 31))
		case classfile.OpIushr:
			b := f.popI()
			a := f.popI()
			f.pushI(int32(uint32(a) >> (uint(b) & 31)))
		case classfile.OpLshl:
			b := f.popI()
			a := f.popJ()
			f.pushJ(a.Shl(uint(b)))
		case classfile.OpLshr:
			b := f.popI()
			a := f.popJ()
			f.pushJ(a.Shr(uint(b)))
		case classfile.OpLushr:
			b := f.popI()
			a := f.popJ()
			f.pushJ(a.Ushr(uint(b)))
		case classfile.OpIand:
			b := f.popI()
			a := f.popI()
			f.pushI(a & b)
		case classfile.OpIor:
			b := f.popI()
			a := f.popI()
			f.pushI(a | b)
		case classfile.OpIxor:
			b := f.popI()
			a := f.popI()
			f.pushI(a ^ b)
		case classfile.OpLand:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.And(b))
		case classfile.OpLor:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.Or(b))
		case classfile.OpLxor:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a.Xor(b))

		case classfile.OpIinc:
			slot := code[f.pc+1]
			f.locals[slot] = boxI(int32(int64(jsInt(f.locals[slot])) + int64(int8(code[f.pc+2]))))

		// --- conversions ---
		case classfile.OpI2l:
			f.pushJ(jlong.FromInt32(f.popI()))
		case classfile.OpI2f:
			f.pushF(float64(f.popI()))
		case classfile.OpI2d:
			f.pushD(float64(f.popI()))
		case classfile.OpL2i:
			f.pushI(f.popJ().Int32())
		case classfile.OpL2f:
			f.pushF(f.popJ().Float64())
		case classfile.OpL2d:
			f.pushD(f.popJ().Float64())
		case classfile.OpF2i:
			f.pushI(d2i(f.popF()))
		case classfile.OpF2l:
			f.pushJ(jlong.FromFloat64(f.popF()))
		case classfile.OpF2d:
			f.pushD(f.popF())
		case classfile.OpD2i:
			f.pushI(d2i(f.popD()))
		case classfile.OpD2l:
			f.pushJ(jlong.FromFloat64(f.popD()))
		case classfile.OpD2f:
			f.pushF(f.popD())
		case classfile.OpI2b:
			f.pushI(int32(int8(f.popI())))
		case classfile.OpI2c:
			f.pushI(int32(uint16(f.popI())))
		case classfile.OpI2s:
			f.pushI(int32(int16(f.popI())))

		// --- comparisons ---
		case classfile.OpLcmp:
			b := f.popJ()
			a := f.popJ()
			f.pushI(int32(a.Cmp(b)))
		case classfile.OpFcmpl, classfile.OpFcmpg:
			b := f.popF()
			a := f.popF()
			f.pushI(fcmp(a, b, op == classfile.OpFcmpg))
		case classfile.OpDcmpl, classfile.OpDcmpg:
			b := f.popD()
			a := f.popD()
			f.pushI(fcmp(a, b, op == classfile.OpDcmpg))

		case classfile.OpIfeq, classfile.OpIfne, classfile.OpIflt,
			classfile.OpIfge, classfile.OpIfgt, classfile.OpIfle:
			v := f.popI()
			taken := false
			switch op {
			case classfile.OpIfeq:
				taken = v == 0
			case classfile.OpIfne:
				taken = v != 0
			case classfile.OpIflt:
				taken = v < 0
			case classfile.OpIfge:
				taken = v >= 0
			case classfile.OpIfgt:
				taken = v > 0
			case classfile.OpIfle:
				taken = v <= 0
			}
			if taken {
				npc = f.pc + int(i16(code, f.pc+1))
			}
		case classfile.OpIfIcmpeq, classfile.OpIfIcmpne, classfile.OpIfIcmplt,
			classfile.OpIfIcmpge, classfile.OpIfIcmpgt, classfile.OpIfIcmple:
			b := f.popI()
			a := f.popI()
			taken := false
			switch op {
			case classfile.OpIfIcmpeq:
				taken = a == b
			case classfile.OpIfIcmpne:
				taken = a != b
			case classfile.OpIfIcmplt:
				taken = a < b
			case classfile.OpIfIcmpge:
				taken = a >= b
			case classfile.OpIfIcmpgt:
				taken = a > b
			case classfile.OpIfIcmple:
				taken = a <= b
			}
			if taken {
				npc = f.pc + int(i16(code, f.pc+1))
			}
		case classfile.OpIfAcmpeq:
			b := f.popR()
			a := f.popR()
			if a == b {
				npc = f.pc + int(i16(code, f.pc+1))
			}
		case classfile.OpIfAcmpne:
			b := f.popR()
			a := f.popR()
			if a != b {
				npc = f.pc + int(i16(code, f.pc+1))
			}
		case classfile.OpIfnull:
			if f.popR() == nil {
				npc = f.pc + int(i16(code, f.pc+1))
			}
		case classfile.OpIfnonnull:
			if f.popR() != nil {
				npc = f.pc + int(i16(code, f.pc+1))
			}

		case classfile.OpGoto:
			npc = f.pc + int(i16(code, f.pc+1))
		case classfile.OpGotoW:
			npc = f.pc + int(int32(u32(code, f.pc+1)))
		case classfile.OpJsr:
			f.push(retAddr(npc))
			npc = f.pc + int(i16(code, f.pc+1))
		case classfile.OpJsrW:
			f.push(retAddr(npc))
			npc = f.pc + int(int32(u32(code, f.pc+1)))
		case classfile.OpRet:
			npc = int(f.locals[code[f.pc+1]].(retAddr))

		case classfile.OpTableswitch:
			base := (f.pc + 4) &^ 3
			def := f.pc + int(int32(u32(code, base)))
			low := int32(u32(code, base+4))
			high := int32(u32(code, base+8))
			v := f.popI()
			if v < low || v > high {
				npc = def
			} else {
				npc = f.pc + int(int32(u32(code, base+12+4*int(v-low))))
			}
		case classfile.OpLookupswitch:
			base := (f.pc + 4) &^ 3
			def := f.pc + int(int32(u32(code, base)))
			n := int(int32(u32(code, base+4)))
			v := f.popI()
			npc = def
			for i := 0; i < n; i++ {
				if int32(u32(code, base+8+8*i)) == v {
					npc = f.pc + int(int32(u32(code, base+12+8*i)))
					break
				}
			}

		case classfile.OpIreturn, classfile.OpFreturn, classfile.OpAreturn,
			classfile.OpLreturn, classfile.OpDreturn:
			d.methodReturnD(f.m.RetDesc)
			if ct.CheckSuspend() {
				return core.Yield
			}
			continue
		case classfile.OpReturn:
			d.methodReturnD("V")
			if ct.CheckSuspend() {
				return core.Yield
			}
			continue

		case classfile.OpGetstatic, classfile.OpPutstatic:
			idx := u16(code, f.pc+1)
			rc := &f.m.Class.CP[idx]
			owner := vm.Reg.Get(rc.ClassName)
			if owner == nil {
				if res := d.loadAndRetry(ct, rc.ClassName); res != runContinue {
					return res.result()
				}
				continue
			}
			fld := owner.FindField(rc.MemberName)
			if fld == nil {
				vm.throwD(d, "java/lang/Error", "no field "+rc.ClassName+"."+rc.MemberName)
				continue
			}
			if fld.Class.State == StateLoaded {
				if d.pushInitIfNeeded(fld.Class) {
					continue
				}
			}
			if vm.quicken {
				kind := QGetstatic
				if op == classfile.OpPutstatic {
					kind = QPutstatic
				}
				installStaticQuick(f.m, f.pc, kind, fld, &vm.qstats)
			}
			if op == classfile.OpGetstatic {
				f.push(dValueFromSlot(fld.Desc, fld.Class.Statics[fld.Name]))
				if fld.Desc == "J" || fld.Desc == "D" {
					f.push(nil)
				}
			} else {
				if fld.Desc == "J" || fld.Desc == "D" {
					f.pop()
				}
				fld.Class.Statics[fld.Name] = dSlotFromValue(fld.Desc, f.pop())
			}
		case classfile.OpGetfield:
			idx := u16(code, f.pc+1)
			rc := &f.m.Class.CP[idx]
			o := f.popR()
			if o == nil {
				vm.throwD(d, "java/lang/NullPointerException", rc.MemberName)
				continue
			}
			owner := vm.Reg.Get(rc.ClassName)
			if owner == nil {
				owner = o.Class
			}
			s, gerr := o.GetField(owner, rc.MemberName)
			if gerr != nil {
				vm.throwD(d, "java/lang/Error", gerr.Error())
				continue
			}
			if vm.quicken {
				fld := owner.FindField(rc.MemberName)
				if fld == nil {
					fld = o.Class.FindField(rc.MemberName)
				}
				installFieldQuick(f.m, f.pc, QGetfield, fld, &vm.qstats)
			}
			f.push(dValueFromSlot(rc.MemberDesc, s))
			if rc.MemberDesc == "J" || rc.MemberDesc == "D" {
				f.push(nil)
			}
		case classfile.OpPutfield:
			idx := u16(code, f.pc+1)
			rc := &f.m.Class.CP[idx]
			if rc.MemberDesc == "J" || rc.MemberDesc == "D" {
				f.pop()
			}
			v := f.pop()
			o := f.popR()
			if o == nil {
				vm.throwD(d, "java/lang/NullPointerException", rc.MemberName)
				continue
			}
			owner := vm.Reg.Get(rc.ClassName)
			if owner == nil {
				owner = o.Class
			}
			if serr := o.SetField(owner, rc.MemberName, dSlotFromValue(rc.MemberDesc, v)); serr != nil {
				vm.throwD(d, "java/lang/Error", serr.Error())
				continue
			}
			if vm.quicken {
				fld := owner.FindField(rc.MemberName)
				if fld == nil {
					fld = o.Class.FindField(rc.MemberName)
				}
				installFieldQuick(f.m, f.pc, QPutfield, fld, &vm.qstats)
			}

		case classfile.OpInvokestatic, classfile.OpInvokespecial,
			classfile.OpInvokevirtual, classfile.OpInvokeinterface:
			res := d.invokeOp(ct, f, op, code, npc)
			switch res {
			case runContinue:
				continue
			case runYield:
				return core.Yield
			case runBlock:
				return core.Block
			case runDone:
				return core.Done
			}

		case classfile.OpNew:
			idx := u16(code, f.pc+1)
			name := f.m.Class.CP[idx].Str
			cls := vm.Reg.Get(name)
			if cls == nil {
				if res := d.loadAndRetry(ct, name); res != runContinue {
					return res.result()
				}
				continue
			}
			if cls.State == StateLoaded {
				if d.pushInitIfNeeded(cls) {
					continue
				}
			}
			if vm.quicken && cls.State == StateInitialized {
				installResolvedQuick(f.m, f.pc, QuickOp{Kind: QNew, Class: cls}, &vm.qstats)
			}
			if vm.prof != nil {
				d.profAlloc(profObjBytes(cls))
			}
			f.pushR(NewObject(cls))
		case classfile.OpNewarray:
			n := f.popI()
			if n < 0 {
				vm.throwD(d, "java/lang/NegativeArraySizeException", fmt.Sprint(n))
				continue
			}
			desc := primArrayDesc(code[f.pc+1])
			arrC, _ := vm.Reg.arrayClass("[" + desc)
			if c := vm.Reg.Get("[" + desc); c != nil {
				arrC = c
			}
			if vm.prof != nil {
				d.profAlloc(profArrayBytes(desc, n))
			}
			f.pushR(NewArray(arrC, desc, int(n)))
		case classfile.OpAnewarray:
			idx := u16(code, f.pc+1)
			n := f.popI()
			if n < 0 {
				vm.throwD(d, "java/lang/NegativeArraySizeException", fmt.Sprint(n))
				continue
			}
			elemName := f.m.Class.CP[idx].Str
			elemDesc := elemName
			if elemName[0] != '[' {
				elemDesc = "L" + elemName + ";"
			}
			arrC := vm.Reg.Get("[" + elemDesc)
			if arrC == nil {
				arrC, _ = vm.Reg.arrayClass("[" + elemDesc)
			}
			if vm.prof != nil {
				d.profAlloc(profArrayBytes(elemDesc, n))
			}
			f.pushR(NewArray(arrC, elemDesc, int(n)))
		case classfile.OpMultianewarray:
			idx := u16(code, f.pc+1)
			dims := int(code[f.pc+3])
			counts := make([]int32, dims)
			bad := false
			for i := dims - 1; i >= 0; i-- {
				counts[i] = f.popI()
				if counts[i] < 0 {
					bad = true
				}
			}
			if bad {
				vm.throwD(d, "java/lang/NegativeArraySizeException", "multianewarray")
				continue
			}
			arrName := f.m.Class.CP[idx].Str
			arr := vm.buildMultiArrayD(arrName, counts)
			if vm.prof != nil {
				total := int64(1)
				for _, c := range counts {
					total *= int64(c)
				}
				d.profAlloc(16 + 8*total)
			}
			f.pushR(arr)
		case classfile.OpArraylength:
			arr := f.popR()
			if arr == nil {
				vm.throwD(d, "java/lang/NullPointerException", "arraylength")
				continue
			}
			f.pushI(int32(arr.ArrayLen()))

		case classfile.OpAthrow:
			ex := f.popR()
			if ex == nil {
				vm.throwD(d, "java/lang/NullPointerException", "athrow")
				continue
			}
			vm.unwindD(d, ex)
			continue

		case classfile.OpCheckcast:
			idx := u16(code, f.pc+1)
			target := f.m.Class.CP[idx].Str
			o, _ := f.peek().(*Object)
			if o != nil && !vm.assignableD(o.Class, target) {
				vm.throwD(d, "java/lang/ClassCastException",
					o.Class.Name+" cannot be cast to "+target)
				continue
			}
			if vm.quicken {
				q := QuickOp{Kind: QCheckcast, Desc: target}
				if o != nil {
					q.ICClass = o.Class
				}
				installResolvedQuick(f.m, f.pc, q, &vm.qstats)
			}
		case classfile.OpInstanceof:
			idx := u16(code, f.pc+1)
			target := f.m.Class.CP[idx].Str
			o := f.popR()
			yes := o != nil && vm.assignableD(o.Class, target)
			if yes {
				f.pushI(1)
			} else {
				f.pushI(0)
			}
			if vm.quicken {
				q := QuickOp{Kind: QInstanceof, Desc: target}
				if o != nil && instanceofFixed(o.Class, yes) {
					q.ICClass, q.K = o.Class, f.peek()
				}
				installResolvedQuick(f.m, f.pc, q, &vm.qstats)
			}

		case classfile.OpMonitorenter:
			o := f.popR()
			if o == nil {
				vm.throwD(d, "java/lang/NullPointerException", "monitorenter")
				continue
			}
			mon := o.EnsureMonitor()
			switch {
			case mon.Owner == nil:
				mon.Owner = d
				mon.Count = 1
			case mon.Owner == d:
				mon.Count++
			default:
				// Contended: block; re-execute monitorenter on resume.
				// The completion label names the monitor's class so a
				// deadlock report says what the thread is stuck on.
				f.pushR(o)
				c := core.NewCompletion(vm.win.Loop, "jvm.monitorenter("+o.Class.Name+")")
				mon.BlockQ = append(mon.BlockQ, func() { c.Resolve(nil, nil) })
				c.Await(ct)
				return core.Block
			}
		case classfile.OpMonitorexit:
			o := f.popR()
			if o == nil {
				vm.throwD(d, "java/lang/NullPointerException", "monitorexit")
				continue
			}
			mon := o.EnsureMonitor()
			if mon.Owner != d {
				vm.throwD(d, "java/lang/IllegalMonitorStateException", "monitorexit")
				continue
			}
			mon.Count--
			if mon.Count == 0 {
				mon.Owner = nil
				vm.wakeOneBlockedD(mon)
			}

		case classfile.OpWide:
			inner := code[f.pc+1]
			slot := int(u16(code, f.pc+2))
			switch inner {
			case classfile.OpIload, classfile.OpFload, classfile.OpAload:
				f.push(f.locals[slot])
			case classfile.OpLload, classfile.OpDload:
				f.push(f.locals[slot])
				f.push(nil)
			case classfile.OpIstore, classfile.OpFstore, classfile.OpAstore:
				f.locals[slot] = f.pop()
			case classfile.OpLstore, classfile.OpDstore:
				f.pop()
				f.locals[slot] = f.pop()
			case classfile.OpIinc:
				f.locals[slot] = boxI(int32(int64(jsInt(f.locals[slot])) + int64(i16(code, f.pc+4))))
			case classfile.OpRet:
				npc = int(f.locals[slot].(retAddr))
			}

		default:
			vm.throwD(d, "java/lang/Error", fmt.Sprintf("illegal opcode %#02x", op))
			continue
		}
		if npc < f.pc && vm.quicken {
			// A taken backward branch: a method that loops warms up
			// mid-invocation, and the next dispatch of the loop body
			// enters runQuickD on the same frame and pc.
			if qt := f.m.quickTable(); qt.noteLoop() {
				qt.fuse(f.m, vm.pairs, &vm.qstats)
			}
		}
		f.pc = npc
	}
}

// runSignal communicates interpreter sub-step outcomes.
type runSignal int

const (
	runContinue runSignal = iota
	runYield
	runBlock
	runDone
)

func (r runSignal) result() core.RunResult {
	switch r {
	case runYield:
		return core.Yield
	case runBlock:
		return core.Block
	default:
		return core.Done
	}
}

// loadAndRetry loads a class asynchronously, suspending the thread
// (§6.4: the file system backend downloads the class file on demand).
// It returns runContinue when the class load completed synchronously;
// the caller re-executes the triggering instruction either way.
func (d *DThread) loadAndRetry(ct *core.Thread, name string) runSignal {
	vm := d.vm
	var loadErr error
	blocked := d.blockOn(ct, "jvm.classload("+name+")", func(done func()) {
		vm.loader.Load(name, func(_ *Class, err error) {
			loadErr = err
			done()
		})
	})
	if blocked {
		return runBlock
	}
	if loadErr != nil {
		vm.throwD(d, "java/lang/ClassNotFoundException", name)
	}
	return runContinue
}

// invokeOp handles the four invoke opcodes, including suspend checks
// at call boundaries (§6.1), class initialization, native dispatch
// and the async-native protocol.
func (d *DThread) invokeOp(ct *core.Thread, f *DFrame, op byte, code []byte, npc int) runSignal {
	vm := d.vm
	idx := u16(code, f.pc+1)
	rc := &f.m.Class.CP[idx]
	owner := vm.Reg.Get(rc.ClassName)
	if owner == nil {
		return d.loadAndRetry(ct, rc.ClassName)
	}
	rm := owner.FindMethod(rc.MemberName, rc.MemberDesc)
	if rm == nil {
		vm.throwD(d, "java/lang/Error", "no method "+rc.ClassName+"."+rc.MemberName+rc.MemberDesc)
		return runContinue
	}
	m := rm
	hasRecv := op != classfile.OpInvokestatic
	if op == classfile.OpInvokestatic && m.Class.State == StateLoaded {
		if d.pushInitIfNeeded(m.Class) {
			return runContinue
		}
	}
	if vm.quicken {
		switch op {
		case classfile.OpInvokestatic:
			installInvokeQuick(f.m, f.pc, QInvokeStatic, rm, &vm.qstats)
		case classfile.OpInvokespecial:
			installInvokeQuick(f.m, f.pc, QInvokeSpecial, rm, &vm.qstats)
		default:
			installInvokeQuick(f.m, f.pc, QInvokeVirtual, rm, &vm.qstats)
		}
	}
	if hasRecv {
		recvIdx := len(f.stack) - rm.ArgSlots - 1
		recv, _ := f.stack[recvIdx].(*Object)
		if recv == nil {
			vm.throwD(d, "java/lang/NullPointerException", rm.Name)
			return runContinue
		}
		if op == classfile.OpInvokevirtual || op == classfile.OpInvokeinterface {
			m = recv.Class.FindMethod(rm.Name, rm.Desc)
			if m == nil {
				vm.throwD(d, "java/lang/Error", "no method "+rm.String()+" on "+recv.Class.Name)
				return runContinue
			}
		}
	}
	f.pc = npc
	return d.invokeResolved(ct, f, m, hasRecv)
}

// invokeResolved finishes an invocation whose target is resolved and
// whose receiver (if any) is known non-null. f.pc must already point
// past the invoke instruction — both the generic handler and the
// quickened forms funnel through here so frame construction,
// telemetry, fusion warm-up, and the §6.1 call-boundary suspend check
// stay identical between the two paths.
func (d *DThread) invokeResolved(ct *core.Thread, f *DFrame, m *Method, hasRecv bool) runSignal {
	vm := d.vm
	if m.IsNative() {
		return d.invokeNativeD(ct, f, m, hasRecv)
	}
	if m.Code == nil {
		vm.throwD(d, "java/lang/Error", "abstract method invoked: "+m.String())
		return runContinue
	}
	nf := d.frameFor(m)
	total := m.ArgSlots
	if hasRecv {
		total++
	}
	base := len(f.stack) - total
	copy(nf.locals, f.stack[base:])
	f.stack = f.stack[:base]
	if tel := vm.tel; tel != nil {
		tel.invocations++
		nf.span = d.methodSpanBegin(m)
	}
	d.frames = append(d.frames, nf)
	if vm.quicken && m.Code != nil {
		if qt := m.quickTable(); qt.noteCall() {
			qt.fuse(m, vm.pairs, &vm.qstats)
		}
	}
	// §6.1: "DOPPIOJVM checks at each function call boundary whether
	// it should suspend."
	if ct.CheckSuspend() {
		return runYield
	}
	return runContinue
}

// quickFlush writes the inner loop's hoisted state back to the frame
// and the VM's shared counters. A plain method (not a closure) so the
// loop's locals stay registerizable.
func (d *DThread) quickFlush(f *DFrame, st []interface{}, sp, pc int, n, fused int64) {
	f.stack = st[:sp]
	f.pc = pc
	d.vm.Instructions += n
	d.vm.qstats.FusedExec += fused
}

// quickResume rebinds the inner loop to the top frame after a call
// boundary. It reports whether that frame is positioned on a
// quickened pc; when it is not (or the thread is done for), the
// caller hands control back to the outer dispatcher.
func (d *DThread) quickResume() (*DFrame, *QuickTable, bool) {
	vm := d.vm
	if d.dead || vm.exited || len(d.frames) == 0 {
		return nil, nil, false
	}
	f := d.frames[len(d.frames)-1]
	qt := f.m.quick
	if qt == nil || f.pc >= len(qt.Ops) || qt.Ops[f.pc].Kind == QNone {
		return f, qt, false
	}
	return f, qt, true
}

// runQuickD executes a run of consecutive quickened side-table
// entries on the Doppio engine in a tight inner loop. The outer
// dispatcher's per-bytecode costs — shared-counter writes, operand
// decoding, the frame's pc and stack-top fields — are hoisted into
// locals and flushed once per run, so each pre-decoded instruction
// touches only the operand stack and locals. Quickened calls and
// returns rebind the hoisted state to the new top frame and keep
// going (with the §6.1 suspend check still made at every boundary);
// the loop hands back to the outer dispatcher at the first generic
// pc and at every throw (the frame stack may have changed).
func (d *DThread) runQuickD(ct *core.Thread, f *DFrame, qt *QuickTable) runSignal {
	vm := d.vm
	tel := vm.tel
	tax := vm.engineTax
rebind:
	ops := qt.Ops
	packed := qt.packed
	// Pair attribution only matters until the fusion pass has run.
	pairs := vm.pairs
	if qt.fused {
		pairs = nil
	}
	lo := f.locals
	st := f.stack[:cap(f.stack)]
	sp := len(f.stack)
	pc := f.pc
	var n, fused int64
	for {
		if pc >= len(packed) {
			// Fell off the end: the outer loop treats this as an
			// implicit void return.
			d.quickFlush(f, st, sp, pc, n, fused)
			return runContinue
		}
		// One word carries kind, opcode, length, immediate and the A
		// operand — a single memory read dispatches most instructions.
		pk := packed[pc]
		kind := QuickKind(pk & packKindMask)
		if kind == QNone {
			d.quickFlush(f, st, sp, pc, n, fused)
			return runContinue
		}
		n++
		for k := 0; k < tax; k++ {
			vm.taxSink++
		}
		if tel != nil {
			tel.opCounts[byte(pk>>packOpShift)]++
		}
		if pairs != nil {
			op := byte(pk >> packOpShift)
			pairs.note(d.prevOp, op)
			d.prevOp = op
		}
		switch kind {
		case QLoad:
			st[sp] = lo[pk>>packAShift]
			sp++
		case QLoad2:
			st[sp] = lo[pk>>packAShift]
			st[sp+1] = nil
			sp += 2
		case QStore:
			sp--
			lo[pk>>packAShift] = st[sp]
		case QStore2:
			sp -= 2
			lo[pk>>packAShift] = st[sp]
		case QConst:
			st[sp] = ops[pc].K
			sp++
		case QConst2:
			st[sp] = ops[pc].K
			st[sp+1] = nil
			sp += 2
		case QDup:
			st[sp] = st[sp-1]
			sp++
		case QPop:
			sp--
		case QIinc:
			a := pk >> packAShift
			lo[a] = boxI(jsInt(lo[a]) + int32(int8(pk>>packImmShift)))
		case QArith:
			sp--
			b := jsInt(st[sp])
			a := jsInt(st[sp-1])
			var r int32
			switch byte(pk >> packOpShift) {
			case classfile.OpIadd:
				r = a + b
			case classfile.OpIsub:
				r = a - b
			case classfile.OpImul:
				r = a * b
			case classfile.OpIand:
				r = a & b
			case classfile.OpIor:
				r = a | b
			case classfile.OpIxor:
				r = a ^ b
			case classfile.OpIshl:
				r = a << (uint(b) & 31)
			case classfile.OpIshr:
				r = a >> (uint(b) & 31)
			case classfile.OpIushr:
				r = int32(uint32(a) >> (uint(b) & 31))
			case classfile.OpIdiv, classfile.OpIrem:
				if b == 0 {
					d.quickFlush(f, st, sp, pc, n, fused)
					vm.throwD(d, "java/lang/ArithmeticException", divZeroMsg(byte(pk>>packOpShift)))
					return runContinue
				}
				if byte(pk>>packOpShift) == classfile.OpIdiv {
					r = int32(jsTruncDiv(float64(a), float64(b)))
				} else {
					r = int32(math.Mod(float64(a), float64(b)))
				}
			}
			st[sp-1] = boxI(r)
		case QLArith:
			b := st[sp-2].(jlong.Long)
			a := st[sp-4].(jlong.Long)
			var r jlong.Long
			switch op := byte(pk >> packOpShift); op {
			case classfile.OpLadd:
				r = a.Add(b)
			case classfile.OpLsub:
				r = a.Sub(b)
			case classfile.OpLmul:
				r = a.Mul(b)
			case classfile.OpLand:
				r = a.And(b)
			case classfile.OpLor:
				r = a.Or(b)
			case classfile.OpLxor:
				r = a.Xor(b)
			case classfile.OpLdiv, classfile.OpLrem:
				if b.IsZero() {
					d.quickFlush(f, st, sp, pc, n, fused)
					vm.throwD(d, "java/lang/ArithmeticException", divZeroMsg(op))
					return runContinue
				}
				if op == classfile.OpLdiv {
					r = a.Div(b)
				} else {
					r = a.Rem(b)
				}
			}
			sp -= 2
			st[sp-2] = r
		case QI2L:
			st[sp-1] = jlong.FromInt32(jsInt(st[sp-1]))
			st[sp] = nil
			sp++
		case QL2I:
			sp--
			st[sp-1] = boxI(st[sp-1].(jlong.Long).Int32())
		case QLcmp:
			b := st[sp-2].(jlong.Long)
			a := st[sp-4].(jlong.Long)
			sp -= 3
			st[sp-1] = boxI(int32(a.Cmp(b)))
		case QArrayLoad:
			idx := jsInt(st[sp-1])
			arr, _ := st[sp-2].(*Object)
			v, wide, ok := loadElemD(arr, idx)
			if !ok {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwArrayD(d, arr, idx, "array load")
				return runContinue
			}
			st[sp-2] = v
			sp--
			if wide {
				st[sp] = nil
				sp++
			}
		case QArrayStore:
			vsp := sp - 1
			if op := byte(pk >> packOpShift); op == classfile.OpLastore || op == classfile.OpDastore {
				vsp--
			}
			idx := jsInt(st[vsp-1])
			arr, _ := st[vsp-2].(*Object)
			if !storeElemD(arr, idx, st[vsp]) {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwArrayD(d, arr, idx, "array store")
				return runContinue
			}
			sp = vsp - 2
		case QArrayLength:
			arr, _ := st[sp-1].(*Object)
			if arr == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", "arraylength")
				return runContinue
			}
			st[sp-1] = boxI(int32(arr.ArrayLen()))
		case QNew:
			q := &ops[pc]
			if vm.prof != nil {
				// Sample at this pc, as the generic handler does.
				f.pc = pc
				d.profAlloc(profObjBytes(q.Class))
			}
			st[sp] = NewObject(q.Class)
			sp++
		case QCheckcast:
			q := &ops[pc]
			if o, _ := st[sp-1].(*Object); o != nil && o.Class != q.ICClass {
				if !vm.assignableD(o.Class, q.Desc) {
					d.quickFlush(f, st, sp, pc, n, fused)
					vm.throwD(d, "java/lang/ClassCastException",
						o.Class.Name+" cannot be cast to "+q.Desc)
					return runContinue
				}
				q.ICClass = o.Class
			}
		case QInstanceof:
			q := &ops[pc]
			o, _ := st[sp-1].(*Object)
			switch {
			case o == nil:
				st[sp-1] = boxI(0)
			case o.Class == q.ICClass:
				st[sp-1] = q.K
			default:
				yes := vm.assignableD(o.Class, q.Desc)
				v := boxI(0)
				if yes {
					v = boxI(1)
				}
				if instanceofFixed(o.Class, yes) {
					q.ICClass, q.K = o.Class, v
				}
				st[sp-1] = v
			}
		case QGoto:
			pc = int(pk >> packAShift)
			continue
		case QIf:
			sp--
			v := jsInt(st[sp])
			var taken bool
			switch byte(pk >> packOpShift) {
			case classfile.OpIfeq:
				taken = v == 0
			case classfile.OpIfne:
				taken = v != 0
			case classfile.OpIflt:
				taken = v < 0
			case classfile.OpIfge:
				taken = v >= 0
			case classfile.OpIfgt:
				taken = v > 0
			case classfile.OpIfle:
				taken = v <= 0
			}
			if taken {
				pc = int(pk >> packAShift)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		case QIfICmp:
			sp -= 2
			b := jsInt(st[sp+1])
			a := jsInt(st[sp])
			var taken bool
			switch byte(pk >> packOpShift) {
			case classfile.OpIfIcmpeq:
				taken = a == b
			case classfile.OpIfIcmpne:
				taken = a != b
			case classfile.OpIfIcmplt:
				taken = a < b
			case classfile.OpIfIcmpge:
				taken = a >= b
			case classfile.OpIfIcmpgt:
				taken = a > b
			case classfile.OpIfIcmple:
				taken = a <= b
			}
			if taken {
				pc = int(pk >> packAShift)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		case QIfACmp:
			sp -= 2
			b, _ := st[sp+1].(*Object)
			a, _ := st[sp].(*Object)
			taken := a == b
			if byte(pk>>packOpShift) == classfile.OpIfAcmpne {
				taken = !taken
			}
			if taken {
				pc = int(pk >> packAShift)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		case QIfNull:
			sp--
			v, _ := st[sp].(*Object)
			taken := v == nil
			if byte(pk>>packOpShift) == classfile.OpIfnonnull {
				taken = !taken
			}
			if taken {
				pc = int(pk >> packAShift)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		case QGetfield:
			q := &ops[pc]
			sp--
			o, _ := st[sp].(*Object)
			if o == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Field.Name)
				return runContinue
			}
			st[sp] = dValueFromSlot(q.Desc, o.Slots[q.Offset])
			sp++
			if q.Wide {
				st[sp] = nil
				sp++
			}
		case QPutfield:
			q := &ops[pc]
			if q.Wide {
				sp--
			}
			sp -= 2
			o, _ := st[sp].(*Object)
			if o == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Field.Name)
				return runContinue
			}
			o.Slots[q.Offset] = dSlotFromValue(q.Desc, st[sp+1])
		case QGetstatic:
			q := &ops[pc]
			st[sp] = dValueFromSlot(q.Desc, q.Field.Class.Statics[q.Field.Name])
			sp++
			if q.Wide {
				st[sp] = nil
				sp++
			}
		case QPutstatic:
			q := &ops[pc]
			if q.Wide {
				sp--
			}
			sp--
			q.Field.Class.Statics[q.Field.Name] = dSlotFromValue(q.Desc, st[sp])
		case QInvokeStatic:
			q := &ops[pc]
			d.quickFlush(f, st, sp, pc+int(q.Len), n, fused)
			if res := d.invokeResolved(ct, f, q.Method, false); res != runContinue {
				return res
			}
			var ok bool
			if f, qt, ok = d.quickResume(); ok {
				goto rebind
			}
			return runContinue
		case QInvokeSpecial:
			q := &ops[pc]
			recv, _ := st[sp-q.Method.ArgSlots-1].(*Object)
			if recv == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Method.Name)
				return runContinue
			}
			d.quickFlush(f, st, sp, pc+int(q.Len), n, fused)
			if res := d.invokeResolved(ct, f, q.Method, true); res != runContinue {
				return res
			}
			var ok bool
			if f, qt, ok = d.quickResume(); ok {
				goto rebind
			}
			return runContinue
		case QInvokeVirtual:
			q := &ops[pc]
			recv, _ := st[sp-q.Method.ArgSlots-1].(*Object)
			if recv == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Method.Name)
				return runContinue
			}
			m := icLookup(q, recv.Class, &vm.qstats)
			if m == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/Error", "no method "+q.Method.String()+" on "+recv.Class.Name)
				return runContinue
			}
			d.quickFlush(f, st, sp, pc+int(q.Len), n, fused)
			if res := d.invokeResolved(ct, f, m, true); res != runContinue {
				return res
			}
			var ok bool
			if f, qt, ok = d.quickResume(); ok {
				goto rebind
			}
			return runContinue
		case QReturn:
			d.quickFlush(f, st, sp, pc, n, fused)
			d.methodReturnD(ops[pc].Desc)
			if ct.CheckSuspend() {
				return runYield
			}
			var ok bool
			if f, qt, ok = d.quickResume(); ok {
				goto rebind
			}
			return runContinue
		case QAloadGetfield:
			q := &ops[pc]
			o, _ := lo[pk>>packAShift].(*Object)
			if o == nil {
				// Re-point pc at the getfield half so exception-table
				// ranges see the same throw site as the unfused form.
				d.quickFlush(f, st, sp, pc+int(q.Len)-3, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Field.Name)
				return runContinue
			}
			st[sp] = dValueFromSlot(q.Desc, o.Slots[q.Offset])
			sp++
			if q.Wide {
				st[sp] = nil
				sp++
			}
			fused++
		case QIloadIadd:
			a := pk >> packAShift
			st[sp-1] = boxI(jsInt(st[sp-1]) + jsInt(lo[a]))
			fused++
		case QGetfieldIfeq:
			q := &ops[pc]
			sp--
			o, _ := st[sp].(*Object)
			if o == nil {
				d.quickFlush(f, st, sp, pc, n, fused)
				vm.throwD(d, "java/lang/NullPointerException", q.Field.Name)
				return runContinue
			}
			fused++
			if jsInt(dValueFromSlot(q.Desc, o.Slots[q.Offset])) == 0 {
				pc = int(pk >> packAShift)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		case QIloadIfIcmplt:
			sp--
			fused++
			// Branch target exceeds the packed immediate; read the
			// full entry.
			if jsInt(st[sp]) < jsInt(lo[pk>>packAShift]) {
				pc = int(ops[pc].Offset)
			} else {
				pc += int((pk >> packLenShift) & 0xff)
			}
			continue
		}
		pc += int((pk >> packLenShift) & 0xff)
	}
}

func (d *DThread) invokeNativeD(ct *core.Thread, f *DFrame, m *Method, hasRecv bool) runSignal {
	vm := d.vm
	fn := m.resolveNative(vm.natives)
	if fn == nil {
		vm.throwD(d, "java/lang/Error", "UnsatisfiedLinkError: "+m.String())
		return runContinue
	}
	recv, args := decodeArgsD(m, f, hasRecv)
	if hasRecv && recv == nil {
		vm.throwD(d, "java/lang/NullPointerException", m.Name)
		return runContinue
	}
	d.depRet = m.RetDesc
	tel := vm.tel
	var nativeStart time.Time
	if tel != nil {
		nativeStart = time.Now()
	}
	res := fn(vm, recv, args)
	if tel != nil && !res.Async {
		tel.nativeLat.ObserveSince(nativeStart)
		tel.nativeCalls.Inc()
	}
	switch {
	case res.Async:
		launch := d.pendingLaunch
		d.pendingLaunch = nil
		if launch == nil {
			vm.throwD(d, "java/lang/Error", "async native without BlockAndCall: "+m.String())
			return runContinue
		}
		if tel != nil {
			// Time an async native to its completion, spanning however
			// many event-loop turns the host operation takes.
			inner := launch
			launch = func(done func()) {
				inner(func() {
					tel.nativeLat.ObserveSince(nativeStart)
					tel.nativeCalls.Inc()
					done()
				})
			}
		}
		if d.blockOn(ct, m.nativeLabel, launch) {
			return runBlock
		}
		d.applyDeposit()
		return runContinue
	case res.Thrown != nil:
		vm.unwindD(d, res.Thrown)
		return runContinue
	default:
		encodePushD(f, m.RetDesc, res.Value)
		return runContinue
	}
}

// divZeroMsg is the ArithmeticException message of a division (or
// remainder) opcode's zero divisor.
func divZeroMsg(op byte) string {
	if op == classfile.OpIrem || op == classfile.OpLrem {
		return "% by zero"
	}
	return "/ by zero"
}

// throwArrayD raises the exception a failed array access throws: a
// NullPointerException naming the access for a null array, otherwise
// the out-of-bounds index.
func (vm *DoppioVM) throwArrayD(d *DThread, arr *Object, idx int32, what string) {
	if arr == nil {
		vm.throwD(d, "java/lang/NullPointerException", what)
		return
	}
	vm.throwD(d, "java/lang/ArrayIndexOutOfBoundsException", strconv.Itoa(int(idx)))
}

// loadElemD reads arr[i] as a JS value; wide marks a long or double
// element (two stack slots). ok is false for a null array or an
// out-of-bounds index.
func loadElemD(arr *Object, i int32) (v interface{}, wide, ok bool) {
	if arr == nil {
		return nil, false, false
	}
	switch a := arr.Arr.(type) {
	case []int32:
		if ok = uint32(i) < uint32(len(a)); ok {
			v = boxI(a[i])
		}
	case []int64:
		if ok = uint32(i) < uint32(len(a)); ok {
			v, wide = jlong.FromInt64(a[i]), true
		}
	case []float32:
		if ok = uint32(i) < uint32(len(a)); ok {
			v = float64(a[i])
		}
	case []float64:
		if ok = uint32(i) < uint32(len(a)); ok {
			v, wide = a[i], true
		}
	case []*Object:
		if ok = uint32(i) < uint32(len(a)); ok && a[i] != nil {
			v = a[i]
		}
	case []int8:
		if ok = uint32(i) < uint32(len(a)); ok {
			v = boxI(int32(a[i]))
		}
	case []uint16:
		if ok = uint32(i) < uint32(len(a)); ok {
			v = boxI(int32(a[i]))
		}
	case []int16:
		if ok = uint32(i) < uint32(len(a)); ok {
			v = boxI(int32(a[i]))
		}
	}
	return v, wide, ok
}

// storeElemD writes the JS value v to arr[i], converting it to the
// array's element type. It reports false, storing nothing, for a null
// array or an out-of-bounds index.
func storeElemD(arr *Object, i int32, v interface{}) bool {
	if arr == nil {
		return false
	}
	switch a := arr.Arr.(type) {
	case []int32:
		if uint32(i) < uint32(len(a)) {
			a[i] = jsInt(v)
			return true
		}
	case []int64:
		if uint32(i) < uint32(len(a)) {
			a[i] = v.(jlong.Long).Int64()
			return true
		}
	case []float32:
		if uint32(i) < uint32(len(a)) {
			a[i] = float32(v.(float64))
			return true
		}
	case []float64:
		if uint32(i) < uint32(len(a)) {
			a[i] = v.(float64)
			return true
		}
	case []*Object:
		if uint32(i) < uint32(len(a)) {
			a[i], _ = v.(*Object)
			return true
		}
	case []int8:
		if uint32(i) < uint32(len(a)) {
			a[i] = int8(jsInt(v))
			return true
		}
	case []uint16:
		if uint32(i) < uint32(len(a)) {
			a[i] = uint16(jsInt(v))
			return true
		}
	case []int16:
		if uint32(i) < uint32(len(a)) {
			a[i] = int16(jsInt(v))
			return true
		}
	}
	return false
}

// instanceofFixed reports whether an instanceof answer for class c may
// be cached: a yes never changes, and neither does a no for a
// non-array class, whose whole ancestry is already loaded. An array's
// element classes may still load later and turn a no into a yes.
func instanceofFixed(c *Class, yes bool) bool { return yes || !c.IsArray }

// assignableD is classAssignable against loaded classes only.
func (vm *DoppioVM) assignableD(c *Class, target string) bool {
	return classAssignableWith(c, target, func(n string) *Class {
		if cl := vm.Reg.Get(n); cl != nil {
			return cl
		}
		if n != "" && n[0] == '[' {
			cl, _ := vm.Reg.arrayClass(n)
			return cl
		}
		return nil
	})
}

func (vm *DoppioVM) buildMultiArrayD(arrName string, counts []int32) *Object {
	arrC := vm.Reg.Get(arrName)
	if arrC == nil {
		arrC, _ = vm.Reg.arrayClass(arrName)
	}
	elemDesc := arrName[1:]
	arr := NewArray(arrC, elemDesc, int(counts[0]))
	if len(counts) > 1 {
		sub := arr.Arr.([]*Object)
		for i := range sub {
			sub[i] = vm.buildMultiArrayD(elemDesc, counts[1:])
		}
	}
	return arr
}
