package jvm

import (
	"fmt"
	"math"

	"doppio/internal/classfile"
)

// u16 reads a big-endian operand.
func u16(code []byte, pc int) uint16 { return uint16(code[pc])<<8 | uint16(code[pc+1]) }

func i16(code []byte, pc int) int16 { return int16(u16(code, pc)) }

func u32(code []byte, pc int) uint32 {
	return uint32(code[pc])<<24 | uint32(code[pc+1])<<16 | uint32(code[pc+2])<<8 | uint32(code[pc+3])
}

// resolveClass resolves (with caching) a CP Class entry.
func (vm *NativeVM) resolveClass(c *Class, idx uint16) (*Class, error) {
	rc := &c.CP[idx]
	if rc.ResolvedClass != nil {
		return rc.ResolvedClass, nil
	}
	cls, err := vm.loader.Load(rc.Str)
	if err != nil {
		return nil, err
	}
	rc.ResolvedClass = cls
	return cls, nil
}

// resolveMethodRef resolves a Methodref/InterfaceMethodref entry.
func (vm *NativeVM) resolveMethodRef(c *Class, idx uint16) (*Method, error) {
	rc := &c.CP[idx]
	if rc.ResolvedMethod != nil {
		return rc.ResolvedMethod, nil
	}
	owner, err := vm.loader.Load(rc.ClassName)
	if err != nil {
		return nil, err
	}
	m := owner.FindMethod(rc.MemberName, rc.MemberDesc)
	if m == nil {
		return nil, fmt.Errorf("jvm: no method %s.%s%s", rc.ClassName, rc.MemberName, rc.MemberDesc)
	}
	rc.ResolvedMethod = m
	return m, nil
}

// resolveFieldRef resolves a Fieldref entry.
func (vm *NativeVM) resolveFieldRef(c *Class, idx uint16) (*Field, error) {
	rc := &c.CP[idx]
	if rc.ResolvedField != nil {
		return rc.ResolvedField, nil
	}
	owner, err := vm.loader.Load(rc.ClassName)
	if err != nil {
		return nil, err
	}
	fld := owner.FindField(rc.MemberName)
	if fld == nil {
		return nil, fmt.Errorf("jvm: no field %s.%s", rc.ClassName, rc.MemberName)
	}
	rc.ResolvedField = fld
	return fld, nil
}

// classAssignable implements the checkcast/instanceof relation.
func (vm *NativeVM) classAssignable(c *Class, target string) bool {
	return classAssignableWith(c, target, func(n string) *Class { return vm.LookupClass(n) })
}

// classAssignableWith is the engine-independent assignability check.
func classAssignableWith(c *Class, target string, lookup func(string) *Class) bool {
	if c.Name == target || target == "java/lang/Object" {
		return true
	}
	if c.IsArray {
		if len(target) == 0 || target[0] != '[' {
			return false
		}
		te, ce := target[1:], c.ElemDesc
		if te == ce {
			return true
		}
		switch {
		case len(te) > 0 && te[0] == 'L' && len(ce) > 0 && ce[0] == 'L':
			ec := lookup(ce[1 : len(ce)-1])
			tc := lookup(te[1 : len(te)-1])
			return ec != nil && tc != nil && ec.SubclassOf(tc)
		case len(te) > 0 && te[0] == '[' && len(ce) > 0 && ce[0] == '[':
			ec := lookup(ce)
			return ec != nil && classAssignableWith(ec, te, lookup)
		}
		return false
	}
	if len(target) > 0 && target[0] == '[' {
		return false
	}
	tc := lookup(target)
	return tc != nil && c.SubclassOf(tc)
}

// applyDeposit pushes a completed native result onto the frame.
func (vm *NativeVM) applyDeposit(t *NThread) {
	t.depReady = false
	if t.depThrown != nil {
		ex := t.depThrown
		t.depValue, t.depThrown = nil, nil
		vm.unwind(t, ex, true)
		return
	}
	if len(t.frames) == 0 {
		return
	}
	f := t.frames[len(t.frames)-1]
	encodePush(f, t.depRet, t.depValue)
	t.depValue = nil
}

// encodePush pushes a decoded native value per return descriptor.
func encodePush(f *NFrame, desc string, v Value) {
	switch desc {
	case "V", "":
	case "J":
		f.pushJ(v.(int64))
	case "F":
		f.pushF(v.(float32))
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

// decodeArgs pops a native call's arguments off the caller frame.
func decodeArgs(m *Method, f *NFrame, hasRecv bool) (recv *Object, args []Value) {
	total := m.ArgSlots
	if hasRecv {
		total++
	}
	base := f.sp - total
	idx := base
	if hasRecv {
		recv = f.stack[idx].R
		idx++
	}
	args = make([]Value, len(m.ParamDescs))
	for i, d := range m.ParamDescs {
		s := f.stack[idx]
		switch d {
		case "J":
			args[i] = s.N
			idx += 2
		case "F":
			args[i] = float32(SlotFloat(s))
			idx++
		case "D":
			args[i] = SlotFloat(s)
			idx += 2
		case "Z", "B", "C", "S", "I":
			args[i] = int32(s.N)
			idx++
		default:
			if s.R == nil {
				args[i] = nil
			} else {
				args[i] = s.R
			}
			idx++
		}
	}
	f.sp = base
	return recv, args
}

// invoke pushes a frame for m, moving arguments from the caller.
func (vm *NativeVM) invoke(t *NThread, caller *NFrame, m *Method, hasRecv bool) {
	if m.IsNative() {
		vm.invokeNative(t, caller, m, hasRecv)
		return
	}
	if m.Code == nil {
		vm.throwInCall(t, "java/lang/Error", "abstract method invoked: "+m.String())
		return
	}
	nf := newNFrame(m)
	total := m.ArgSlots
	if hasRecv {
		total++
	}
	copy(nf.locals, caller.stack[caller.sp-total:caller.sp])
	caller.sp -= total
	t.frames = append(t.frames, nf)
}

func (vm *NativeVM) invokeNative(t *NThread, caller *NFrame, m *Method, hasRecv bool) {
	fn := m.resolveNative(vm.natives)
	if fn == nil {
		vm.throwInCall(t, "java/lang/Error", "UnsatisfiedLinkError: "+m.String())
		return
	}
	recv, args := decodeArgs(m, caller, hasRecv)
	if hasRecv && recv == nil {
		vm.throwInCall(t, "java/lang/NullPointerException", m.Name)
		return
	}
	t.depRet = m.RetDesc
	res := fn(vm, recv, args)
	switch {
	case res.Async:
		if t.depReady {
			vm.applyDeposit(t)
		}
		// Otherwise the thread blocked; resume applies the deposit.
	case res.Thrown != nil:
		vm.unwind(t, res.Thrown, true)
	default:
		encodePush(caller, m.RetDesc, res.Value)
	}
}

// methodReturn pops the current frame, transferring the return value.
func (vm *NativeVM) methodReturn(t *NThread, desc string) {
	f := t.frames[len(t.frames)-1]
	var v Slot
	var wide bool
	switch desc {
	case "V":
	case "J", "D":
		f.pop()
		v = f.pop()
		wide = true
	default:
		v = f.pop()
	}
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		vm.killThread(t)
		return
	}
	caller := t.frames[len(t.frames)-1]
	if desc != "V" {
		caller.push(v)
		if wide {
			caller.push(Slot{})
		}
	}
}

// execute runs up to quantum instructions of thread t.
func (vm *NativeVM) execute(t *NThread, quantum int) error {
	if t.depReady {
		vm.applyDeposit(t)
	}
	for steps := 0; steps < quantum; steps++ {
		if t.state != ntRunnable || vm.exited {
			return nil
		}
		if len(t.frames) == 0 {
			vm.killThread(t)
			return nil
		}
		f := t.frames[len(t.frames)-1]
		code := f.m.Code.Bytecode
		if f.pc >= len(code) {
			// Fell off a void method (e.g. <clinit> without return).
			vm.methodReturn(t, "V")
			continue
		}
		vm.Instructions++
		op := code[f.pc]
		if vm.prof != nil {
			if vm.profCheck--; vm.profCheck <= 0 {
				vm.profTick(t)
			}
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
			f.pushJ(0)
		case classfile.OpLconst1:
			f.pushJ(1)
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
				f.pushF(rc.Float)
			case classfile.TagLong:
				f.pushJ(rc.Long)
			case classfile.TagDouble:
				f.pushD(rc.Double)
			case classfile.TagString:
				if rc.StringObj == nil {
					rc.StringObj = vm.Intern(rc.Str)
				}
				f.pushR(rc.StringObj)
			case classfile.TagClass:
				cls, err := vm.resolveClass(f.m.Class, idx)
				if err != nil {
					vm.throwByName(t, "java/lang/ClassNotFoundException", rc.Str)
					continue
				}
				f.pushR(vm.ClassMirror(cls))
			}

		case classfile.OpIload, classfile.OpFload, classfile.OpAload:
			f.push(f.locals[code[f.pc+1]])
		case classfile.OpLload, classfile.OpDload:
			f.push(f.locals[code[f.pc+1]])
			f.push(Slot{})
		case classfile.OpIload0, classfile.OpIload1, classfile.OpIload2, classfile.OpIload3:
			f.push(f.locals[op-classfile.OpIload0])
		case classfile.OpLload0, classfile.OpLload1, classfile.OpLload2, classfile.OpLload3:
			f.push(f.locals[op-classfile.OpLload0])
			f.push(Slot{})
		case classfile.OpFload0, classfile.OpFload1, classfile.OpFload2, classfile.OpFload3:
			f.push(f.locals[op-classfile.OpFload0])
		case classfile.OpDload0, classfile.OpDload1, classfile.OpDload2, classfile.OpDload3:
			f.push(f.locals[op-classfile.OpDload0])
			f.push(Slot{})
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

		// --- array loads/stores ---
		case classfile.OpIaload, classfile.OpLaload, classfile.OpFaload, classfile.OpDaload,
			classfile.OpAaload, classfile.OpBaload, classfile.OpCaload, classfile.OpSaload:
			idx := f.popI()
			arr := f.popR()
			if arr == nil {
				vm.throwByName(t, "java/lang/NullPointerException", "array load")
				continue
			}
			if int(idx) < 0 || int(idx) >= arr.ArrayLen() {
				vm.throwByName(t, "java/lang/ArrayIndexOutOfBoundsException", fmt.Sprint(idx))
				continue
			}
			switch a := arr.Arr.(type) {
			case []int32:
				f.pushI(a[idx])
			case []int64:
				f.pushJ(a[idx])
			case []float32:
				f.pushF(a[idx])
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
			var vj int64
			var vf float32
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
				vm.throwByName(t, "java/lang/NullPointerException", "array store")
				continue
			}
			if int(idx) < 0 || int(idx) >= arr.ArrayLen() {
				vm.throwByName(t, "java/lang/ArrayIndexOutOfBoundsException", fmt.Sprint(idx))
				continue
			}
			switch a := arr.Arr.(type) {
			case []int32:
				a[idx] = vi
			case []int64:
				a[idx] = vj
			case []float32:
				a[idx] = vf
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

		// --- stack shuffles ---
		case classfile.OpPop:
			f.pop()
		case classfile.OpPop2:
			f.pop()
			f.pop()
		case classfile.OpDup:
			v := f.stack[f.sp-1]
			f.push(v)
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
			v1 := f.stack[f.sp-1]
			v2 := f.stack[f.sp-2]
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

		// --- arithmetic ---
		case classfile.OpIadd:
			b := f.popI()
			a := f.popI()
			f.pushI(a + b)
		case classfile.OpLadd:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a + b)
		case classfile.OpFadd:
			b := f.popF()
			a := f.popF()
			f.pushF(a + b)
		case classfile.OpDadd:
			b := f.popD()
			a := f.popD()
			f.pushD(a + b)
		case classfile.OpIsub:
			b := f.popI()
			a := f.popI()
			f.pushI(a - b)
		case classfile.OpLsub:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a - b)
		case classfile.OpFsub:
			b := f.popF()
			a := f.popF()
			f.pushF(a - b)
		case classfile.OpDsub:
			b := f.popD()
			a := f.popD()
			f.pushD(a - b)
		case classfile.OpImul:
			b := f.popI()
			a := f.popI()
			f.pushI(a * b)
		case classfile.OpLmul:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a * b)
		case classfile.OpFmul:
			b := f.popF()
			a := f.popF()
			f.pushF(a * b)
		case classfile.OpDmul:
			b := f.popD()
			a := f.popD()
			f.pushD(a * b)
		case classfile.OpIdiv:
			b := f.popI()
			a := f.popI()
			if b == 0 {
				vm.throwByName(t, "java/lang/ArithmeticException", "/ by zero")
				continue
			}
			if a == math.MinInt32 && b == -1 {
				f.pushI(math.MinInt32)
			} else {
				f.pushI(a / b)
			}
		case classfile.OpLdiv:
			b := f.popJ()
			a := f.popJ()
			if b == 0 {
				vm.throwByName(t, "java/lang/ArithmeticException", "/ by zero")
				continue
			}
			if a == math.MinInt64 && b == -1 {
				f.pushJ(math.MinInt64)
			} else {
				f.pushJ(a / b)
			}
		case classfile.OpFdiv:
			b := f.popF()
			a := f.popF()
			f.pushF(a / b)
		case classfile.OpDdiv:
			b := f.popD()
			a := f.popD()
			f.pushD(a / b)
		case classfile.OpIrem:
			b := f.popI()
			a := f.popI()
			if b == 0 {
				vm.throwByName(t, "java/lang/ArithmeticException", "% by zero")
				continue
			}
			if a == math.MinInt32 && b == -1 {
				f.pushI(0)
			} else {
				f.pushI(a % b)
			}
		case classfile.OpLrem:
			b := f.popJ()
			a := f.popJ()
			if b == 0 {
				vm.throwByName(t, "java/lang/ArithmeticException", "% by zero")
				continue
			}
			if a == math.MinInt64 && b == -1 {
				f.pushJ(0)
			} else {
				f.pushJ(a % b)
			}
		case classfile.OpFrem:
			b := f.popF()
			a := f.popF()
			f.pushF(float32(jrem(float64(a), float64(b))))
		case classfile.OpDrem:
			b := f.popD()
			a := f.popD()
			f.pushD(jrem(a, b))
		case classfile.OpIneg:
			f.pushI(-f.popI())
		case classfile.OpLneg:
			f.pushJ(-f.popJ())
		case classfile.OpFneg:
			f.pushF(-f.popF())
		case classfile.OpDneg:
			f.pushD(-f.popD())

		case classfile.OpIshl:
			b := f.popI()
			a := f.popI()
			f.pushI(a << (uint(b) & 31))
		case classfile.OpLshl:
			b := f.popI()
			a := f.popJ()
			f.pushJ(a << (uint(b) & 63))
		case classfile.OpIshr:
			b := f.popI()
			a := f.popI()
			f.pushI(a >> (uint(b) & 31))
		case classfile.OpLshr:
			b := f.popI()
			a := f.popJ()
			f.pushJ(a >> (uint(b) & 63))
		case classfile.OpIushr:
			b := f.popI()
			a := f.popI()
			f.pushI(int32(uint32(a) >> (uint(b) & 31)))
		case classfile.OpLushr:
			b := f.popI()
			a := f.popJ()
			f.pushJ(int64(uint64(a) >> (uint(b) & 63)))
		case classfile.OpIand:
			b := f.popI()
			a := f.popI()
			f.pushI(a & b)
		case classfile.OpLand:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a & b)
		case classfile.OpIor:
			b := f.popI()
			a := f.popI()
			f.pushI(a | b)
		case classfile.OpLor:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a | b)
		case classfile.OpIxor:
			b := f.popI()
			a := f.popI()
			f.pushI(a ^ b)
		case classfile.OpLxor:
			b := f.popJ()
			a := f.popJ()
			f.pushJ(a ^ b)

		case classfile.OpIinc:
			slot := code[f.pc+1]
			f.locals[slot].N = int64(int32(f.locals[slot].N) + int32(int8(code[f.pc+2])))

		// --- conversions ---
		case classfile.OpI2l:
			f.pushJ(int64(f.popI()))
		case classfile.OpI2f:
			f.pushF(float32(f.popI()))
		case classfile.OpI2d:
			f.pushD(float64(f.popI()))
		case classfile.OpL2i:
			f.pushI(int32(f.popJ()))
		case classfile.OpL2f:
			f.pushF(float32(f.popJ()))
		case classfile.OpL2d:
			f.pushD(float64(f.popJ()))
		case classfile.OpF2i:
			f.pushI(d2i(float64(f.popF())))
		case classfile.OpF2l:
			f.pushJ(d2l(float64(f.popF())))
		case classfile.OpF2d:
			f.pushD(float64(f.popF()))
		case classfile.OpD2i:
			f.pushI(d2i(f.popD()))
		case classfile.OpD2l:
			f.pushJ(d2l(f.popD()))
		case classfile.OpD2f:
			f.pushF(float32(f.popD()))
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
			f.pushI(cmpOrd(a > b, a < b))
		case classfile.OpFcmpl, classfile.OpFcmpg:
			b := float64(f.popF())
			a := float64(f.popF())
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
			f.push(Slot{N: int64(npc)})
			npc = f.pc + int(i16(code, f.pc+1))
		case classfile.OpJsrW:
			f.push(Slot{N: int64(npc)})
			npc = f.pc + int(int32(u32(code, f.pc+1)))
		case classfile.OpRet:
			npc = int(f.locals[code[f.pc+1]].N)

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
			lo, hi := 0, n-1
			for lo <= hi {
				mid := (lo + hi) / 2
				k := int32(u32(code, base+8+8*mid))
				if k == v {
					npc = f.pc + int(int32(u32(code, base+12+8*mid)))
					break
				} else if k < v {
					lo = mid + 1
				} else {
					hi = mid - 1
				}
			}

		case classfile.OpIreturn, classfile.OpFreturn, classfile.OpAreturn,
			classfile.OpLreturn, classfile.OpDreturn:
			vm.methodReturn(t, f.m.RetDesc)
			continue
		case classfile.OpReturn:
			vm.methodReturn(t, "V")
			continue

		// --- fields ---
		case classfile.OpGetstatic, classfile.OpPutstatic:
			idx := u16(code, f.pc+1)
			fld, err := vm.resolveFieldRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			if fld.Class.State == StateLoaded {
				vm.ensureInit(t, fld.Class)
				continue // re-execute after <clinit>
			}
			wide := fld.Desc == "J" || fld.Desc == "D"
			if op == classfile.OpGetstatic {
				v := fld.Class.Statics[fld.Name]
				f.push(v)
				if wide {
					f.push(Slot{})
				}
			} else {
				if wide {
					f.pop()
				}
				fld.Class.Statics[fld.Name] = f.pop()
			}
		case classfile.OpGetfield:
			idx := u16(code, f.pc+1)
			fld, err := vm.resolveFieldRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			o := f.popR()
			if o == nil {
				vm.throwByName(t, "java/lang/NullPointerException", fld.Name)
				continue
			}
			v, gerr := o.GetField(fld.Class, fld.Name)
			if gerr != nil {
				vm.throwByName(t, "java/lang/Error", gerr.Error())
				continue
			}
			f.push(v)
			if fld.Desc == "J" || fld.Desc == "D" {
				f.push(Slot{})
			}
		case classfile.OpPutfield:
			idx := u16(code, f.pc+1)
			fld, err := vm.resolveFieldRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			if fld.Desc == "J" || fld.Desc == "D" {
				f.pop()
			}
			v := f.pop()
			o := f.popR()
			if o == nil {
				vm.throwByName(t, "java/lang/NullPointerException", fld.Name)
				continue
			}
			if serr := o.SetField(fld.Class, fld.Name, v); serr != nil {
				vm.throwByName(t, "java/lang/Error", serr.Error())
				continue
			}

		// --- invokes ---
		case classfile.OpInvokestatic:
			idx := u16(code, f.pc+1)
			m, err := vm.resolveMethodRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			if m.Class.State == StateLoaded {
				vm.ensureInit(t, m.Class)
				continue
			}
			f.pc = npc
			vm.invoke(t, f, m, false)
			continue
		case classfile.OpInvokespecial:
			idx := u16(code, f.pc+1)
			m, err := vm.resolveMethodRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			recvIdx := f.sp - m.ArgSlots - 1
			if f.stack[recvIdx].R == nil {
				vm.throwByName(t, "java/lang/NullPointerException", m.Name)
				continue
			}
			f.pc = npc
			vm.invoke(t, f, m, true)
			continue
		case classfile.OpInvokevirtual, classfile.OpInvokeinterface:
			idx := u16(code, f.pc+1)
			rm, err := vm.resolveMethodRef(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", err.Error())
				continue
			}
			recvIdx := f.sp - rm.ArgSlots - 1
			recv := f.stack[recvIdx].R
			if recv == nil {
				vm.throwByName(t, "java/lang/NullPointerException", rm.Name)
				continue
			}
			m := recv.Class.FindMethod(rm.Name, rm.Desc)
			if m == nil {
				vm.throwByName(t, "java/lang/Error", "no such method "+rm.String())
				continue
			}
			f.pc = npc
			vm.invoke(t, f, m, true)
			continue

		// --- allocation ---
		case classfile.OpNew:
			idx := u16(code, f.pc+1)
			cls, err := vm.resolveClass(f.m.Class, idx)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", f.m.Class.CP[idx].Str)
				continue
			}
			if cls.State == StateLoaded {
				vm.ensureInit(t, cls)
				continue
			}
			if vm.prof != nil {
				vm.profAllocN(t, profObjBytes(cls))
			}
			f.pushR(NewObject(cls))
		case classfile.OpNewarray:
			n := f.popI()
			if n < 0 {
				vm.throwByName(t, "java/lang/NegativeArraySizeException", fmt.Sprint(n))
				continue
			}
			desc := primArrayDesc(code[f.pc+1])
			arrC, err := vm.loader.Load("[" + desc)
			if err != nil {
				vm.throwByName(t, "java/lang/Error", err.Error())
				continue
			}
			if vm.prof != nil {
				vm.profAllocN(t, profArrayBytes(desc, n))
			}
			f.pushR(NewArray(arrC, desc, int(n)))
		case classfile.OpAnewarray:
			idx := u16(code, f.pc+1)
			n := f.popI()
			if n < 0 {
				vm.throwByName(t, "java/lang/NegativeArraySizeException", fmt.Sprint(n))
				continue
			}
			elemName := f.m.Class.CP[idx].Str
			elemDesc := elemName
			if elemName[0] != '[' {
				elemDesc = "L" + elemName + ";"
			}
			arrC, err := vm.loader.Load("[" + elemDesc)
			if err != nil {
				vm.throwByName(t, "java/lang/ClassNotFoundException", elemName)
				continue
			}
			if vm.prof != nil {
				vm.profAllocN(t, profArrayBytes(elemDesc, n))
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
				vm.throwByName(t, "java/lang/NegativeArraySizeException", "multianewarray")
				continue
			}
			arrName := f.m.Class.CP[idx].Str
			arr, err := vm.buildMultiArray(arrName, counts)
			if err != nil {
				vm.throwByName(t, "java/lang/Error", err.Error())
				continue
			}
			if vm.prof != nil {
				total := int64(1)
				for _, c := range counts {
					total *= int64(c)
				}
				vm.profAllocN(t, 16+8*total)
			}
			f.pushR(arr)
		case classfile.OpArraylength:
			arr := f.popR()
			if arr == nil {
				vm.throwByName(t, "java/lang/NullPointerException", "arraylength")
				continue
			}
			f.pushI(int32(arr.ArrayLen()))

		case classfile.OpAthrow:
			ex := f.popR()
			if ex == nil {
				vm.throwByName(t, "java/lang/NullPointerException", "athrow")
				continue
			}
			vm.unwind(t, ex, false)
			continue

		case classfile.OpCheckcast:
			idx := u16(code, f.pc+1)
			target := f.m.Class.CP[idx].Str
			o := f.stack[f.sp-1].R
			if o != nil && !vm.classAssignable(o.Class, target) {
				vm.throwByName(t, "java/lang/ClassCastException",
					o.Class.Name+" cannot be cast to "+target)
				continue
			}
		case classfile.OpInstanceof:
			idx := u16(code, f.pc+1)
			target := f.m.Class.CP[idx].Str
			o := f.popR()
			if o != nil && vm.classAssignable(o.Class, target) {
				f.pushI(1)
			} else {
				f.pushI(0)
			}

		case classfile.OpMonitorenter:
			o := f.popR()
			if o == nil {
				vm.throwByName(t, "java/lang/NullPointerException", "monitorenter")
				continue
			}
			mon := o.EnsureMonitor()
			switch {
			case mon.Owner == nil:
				mon.Owner = t
				mon.Count = 1
			case mon.Owner == t:
				mon.Count++
			default:
				// Block; re-execute monitorenter on resume.
				f.pushR(o)
				t.state = ntBlocked
				mon.BlockQ = append(mon.BlockQ, func() { t.state = ntRunnable })
				return nil
			}
		case classfile.OpMonitorexit:
			o := f.popR()
			if o == nil {
				vm.throwByName(t, "java/lang/NullPointerException", "monitorexit")
				continue
			}
			mon := o.EnsureMonitor()
			if mon.Owner != t {
				vm.throwByName(t, "java/lang/IllegalMonitorStateException", "monitorexit")
				continue
			}
			mon.Count--
			if mon.Count == 0 {
				mon.Owner = nil
				vm.wakeOneBlocked(mon)
			}

		case classfile.OpWide:
			inner := code[f.pc+1]
			slot := int(u16(code, f.pc+2))
			switch inner {
			case classfile.OpIload, classfile.OpFload, classfile.OpAload:
				f.push(f.locals[slot])
			case classfile.OpLload, classfile.OpDload:
				f.push(f.locals[slot])
				f.push(Slot{})
			case classfile.OpIstore, classfile.OpFstore, classfile.OpAstore:
				f.locals[slot] = f.pop()
			case classfile.OpLstore, classfile.OpDstore:
				f.pop()
				f.locals[slot] = f.pop()
			case classfile.OpIinc:
				f.locals[slot].N = int64(int32(f.locals[slot].N) + int32(i16(code, f.pc+4)))
			case classfile.OpRet:
				npc = int(f.locals[slot].N)
			}

		default:
			return fmt.Errorf("jvm: illegal opcode %#02x at %s pc=%d", op, f.m, f.pc)
		}
		f.pc = npc
	}
	return nil
}

// d2i converts double→int with JVM saturation semantics.
func d2i(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

// d2l converts double→long with JVM saturation semantics.
func d2l(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}

func cmpOrd(gt, lt bool) int32 {
	switch {
	case gt:
		return 1
	case lt:
		return -1
	}
	return 0
}

// fcmp implements fcmpl/fcmpg and dcmpl/dcmpg NaN behaviour.
func fcmp(a, b float64, nanIsOne bool) int32 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if nanIsOne {
			return 1
		}
		return -1
	}
	return cmpOrd(a > b, a < b)
}

func primArrayDesc(code byte) string {
	switch code {
	case 4:
		return "Z"
	case 5:
		return "C"
	case 6:
		return "F"
	case 7:
		return "D"
	case 8:
		return "B"
	case 9:
		return "S"
	case 10:
		return "I"
	case 11:
		return "J"
	}
	return "I"
}

// buildMultiArray allocates nested arrays for multianewarray.
func (vm *NativeVM) buildMultiArray(arrName string, counts []int32) (*Object, error) {
	arrC, err := vm.loader.Load(arrName)
	if err != nil {
		return nil, err
	}
	elemDesc := arrName[1:]
	arr := NewArray(arrC, elemDesc, int(counts[0]))
	if len(counts) > 1 {
		sub := arr.Arr.([]*Object)
		for i := range sub {
			inner, err := vm.buildMultiArray(elemDesc, counts[1:])
			if err != nil {
				return nil, err
			}
			sub[i] = inner
		}
	}
	return arr, nil
}
