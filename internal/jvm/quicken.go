package jvm

import (
	"doppio/internal/classfile"
	"doppio/internal/jlong"
)

// This file is the Doppio engine's warm-up rewriter: bytecode
// quickening, monomorphic inline caches, and superinstruction fusion
// (ROADMAP item 1, following the "Not So Fast" attribution
// methodology). The native baseline engine has no speed tier.
//
// The original bytecode is never mutated. Each method instead grows a
// side-table of QuickOps indexed by pc: on the first successful
// generic resolution of a getfield/putfield/getstatic/putstatic/
// invoke*/ldc/new/checkcast/instanceof the generic handler installs a
// quickened form carrying the direct field offset or resolved target,
// and every later visit to that pc dispatches on the side-table entry
// instead of re-resolving through the constant pool. Keeping the
// bytecode intact means the un-quickened paper-fidelity path
// (-jvm-quicken=false) executes the byte-identical program, branch
// offsets and exception ranges stay valid without relocation, and a
// deopted site simply falls back to the generic handler that is still
// there.

// QuickKind enumerates the quickened instruction forms.
type QuickKind uint8

// Quickened forms. The Q*field/Q*static/QInvoke* kinds replace one
// generic instruction; QAloadGetfield, QIloadIadd, QGetfieldIfeq and
// QIloadIfIcmplt are fused superinstructions replacing an adjacent
// pair.
const (
	QNone QuickKind = iota
	QGetfield
	QPutfield
	QGetstatic
	QPutstatic
	QInvokeVirtual // also invokeinterface: receiver-polymorphic, IC-cached
	QInvokeSpecial
	QInvokeStatic
	QAloadGetfield // aload_N/aload ; getfield_q
	QIloadIadd     // iload_N/iload ; iadd
	QGetfieldIfeq  // getfield_q ; ifeq (int-family field, zero test)
	QIloadIfIcmplt // iload_N/iload ; if_icmplt

	// Pre-decoded simple forms, installed in one pass over a warm
	// method's bytecode (predecode). They carry fully decoded operands
	// (local index, absolute branch target, preboxed constant), so a
	// run of consecutive entries executes in a tight inner loop with
	// no per-instruction operand decoding.
	QLoad   // single-slot load: push locals[A]
	QLoad2  // two-slot load (lload/dload): push locals[A] plus a pad
	QStore  // single-slot store: locals[A] = pop
	QStore2 // two-slot store: pop the pad, then locals[A] = pop
	QConst  // push the preboxed constant K
	QGoto   // pc = A (absolute)
	QIf     // pop an int, compare against zero per Op, branch to A
	QIfICmp // pop two ints, compare per Op, branch to A
	QIfACmp // pop two refs, eq/ne per Op, branch to A
	QIfNull // pop a ref, null-test per Op, branch to A
	QArith  // pop two ints, combine per Op (non-throwing ops only)
	QIinc   // locals[A] += Offset (wrapping int32)
	QDup    // duplicate the top stack slot
	QPop    // discard the top stack slot
	QReturn // method return; Desc holds the return descriptor

	// Pre-decoded long, conversion and array forms. The throwing ones
	// (ldiv/lrem, array accesses, arraylength) flush the inner loop's
	// state and raise at their own pc, exactly as the generic handler
	// would.
	QConst2      // push the preboxed long/double constant K plus a pad
	QLArith      // pop two longs, combine per Op (ldiv/lrem throw on zero)
	QI2L         // widen the top int to a long
	QL2I         // narrow the top long to an int
	QLcmp        // pop two longs, push their -1/0/1 comparison
	QArrayLoad   // pop index and array, push the element (Op picks the width)
	QArrayStore  // pop value, index and array, store the element
	QArrayLength // pop an array, push its length

	// Forms the generic handlers install on their first successful
	// execution.
	QNew        // allocate an instance of the initialized class Class
	QCheckcast  // checkcast to Desc; ICClass caches a class known to pass
	QInstanceof // instanceof Desc; ICClass caches a class whose answer K cannot change
)

// icMissLimit is how many inline-cache misses a virtual call site
// absorbs before it is declared megamorphic and stops updating its
// cache (it still dispatches through the quickened FindMethod path,
// just without the monomorphic fast hit).
const icMissLimit = 8

// fusionWarmup is the per-method invocation count after which the
// superinstruction fusion pass first runs, and fusionHot is how many
// dynamic executions an adjacent opcode pair needs (per-VM attribution
// counters) before it is considered worth fusing. A method that loops
// runs its first pass after fusionHot taken backward branches instead,
// if that comes first: by then the loop body's pairs are hot. A method
// whose first pass ran before the pair counters warmed up gets one
// retry at fusionRetry calls; only then does it stop feeding the
// counters.
const (
	fusionWarmup = 16
	fusionRetry  = 512
	fusionHot    = 64
)

// QuickOp is one quickened instruction in a method's side table.
type QuickOp struct {
	Kind QuickKind
	// Op is the raw opcode this entry replaces (the first of the pair
	// for fused forms): the attribution counters key on it, and the
	// QIf/QArith families dispatch their sub-operation on it.
	Op byte

	// A is the local-variable index of the fused load prefix and the
	// QLoad/QStore/QIinc forms, or the absolute branch target of the
	// QGoto/QIf* forms.
	A int32
	// Offset is the instance-slot index for Q{Getfield,Putfield,
	// AloadGetfield} — inheritance-stable thanks to the superclass-
	// prefix field layout.
	Offset int32
	// Wide marks long/double fields (the operand stack pads them with
	// a second slot).
	Wide bool
	// Desc is the field descriptor (the Doppio engine's JS-value
	// conversions key on it), or the target class name of
	// QCheckcast/QInstanceof.
	Desc string
	// K is the preboxed QConst/QConst2 value in the Doppio engine's
	// JS value representation (nil for aconst_null), or QInstanceof's
	// cached 0/1 answer.
	K interface{}
	// Field is the resolved field, for statics and stats.
	Field *Field
	// Class is the resolved class QNew instantiates.
	Class *Class
	// Method is the resolved target: the direct target for
	// invokestatic/invokespecial, the resolved declaration (name+desc
	// holder) for invokevirtual/interface.
	Method *Method
	// Len is the byte length of the instruction(s) this entry
	// replaces — the fused forms cover two.
	Len int32

	// Monomorphic inline cache for QInvokeVirtual, keyed on the
	// receiver's class pointer. QCheckcast and QInstanceof cache one
	// class in ICClass the same way.
	ICClass  *Class
	ICMethod *Method
	// Misses counts IC misses at this site; past icMissLimit the
	// site is megamorphic and ICClass stays nil.
	Misses int32
}

// QuickTable is a method's quickening side table, allocated lazily on
// the first installed site.
type QuickTable struct {
	// Ops is indexed by bytecode pc; untouched pcs hold QNone.
	Ops []QuickOp
	// packed mirrors each entry's hot dispatch fields in one word —
	// kind, raw opcode, length, a small immediate, and the A operand —
	// so the Doppio engine's inner loop pays a single memory read per
	// instruction instead of one per field (which matters doubly under
	// the race detector's per-access instrumentation). Kept in sync by
	// pack(); zero means QNone.
	packed []uint64

	calls  int32 // invocations since allocation, for fusion warm-up
	loops  int32 // taken backward branches before the first pass
	passes int8  // fusion passes run so far (two max)
	fused  bool  // fusion finished; pair attribution stops feeding
}

// quickTable returns the method's side table, allocating it on first
// use.
func (m *Method) quickTable() *QuickTable {
	if m.quick == nil {
		m.quick = &QuickTable{
			Ops:    make([]QuickOp, len(m.Code.Bytecode)),
			packed: make([]uint64, len(m.Code.Bytecode)),
		}
	}
	return m.quick
}

// Packed-word layout: bits 0-7 kind, 8-15 raw opcode, 16-23 length,
// 24-31 small immediate (the iinc delta), 32-63 the A operand.
const (
	packOpShift  = 8
	packLenShift = 16
	packImmShift = 24
	packAShift   = 32
	packKindMask = 0xff
)

// pack mirrors Ops[pc] into its packed dispatch word.
func (qt *QuickTable) pack(pc int) {
	e := &qt.Ops[pc]
	qt.packed[pc] = uint64(e.Kind) |
		uint64(e.Op)<<packOpShift |
		uint64(uint8(e.Len))<<packLenShift |
		uint64(uint8(e.Offset))<<packImmShift |
		uint64(uint32(e.A))<<packAShift
}

// noteCall bumps the invocation counter and reports whether the
// fusion pass should run now: once at fusionWarmup calls and, if the
// pair counters were still cold then, once more at fusionRetry.
func (qt *QuickTable) noteCall() bool {
	if qt.fused {
		return false
	}
	qt.calls++
	if qt.passes == 0 {
		return qt.calls >= fusionWarmup
	}
	return qt.calls >= fusionRetry
}

// noteLoop counts a taken backward branch in a method that has not
// had a fusion pass yet, and reports whether the first pass should run
// now: after fusionHot iterations, mid-invocation. The generic loop
// calls it, so the next dispatch of the loop body enters the
// quickened tier without waiting for another call.
func (qt *QuickTable) noteLoop() bool {
	if qt.passes > 0 {
		return false
	}
	qt.loops++
	return qt.loops >= fusionHot
}

// QuickStats holds the Doppio engine's quickening counters, surfaced
// through /debug/jvm and the post-mortem report.
type QuickStats struct {
	Enabled   bool  `json:"enabled"`
	Sites     int64 `json:"sites"`      // quickened sites installed
	ICHits    int64 `json:"ic_hits"`    // monomorphic fast-path dispatches
	ICMisses  int64 `json:"ic_misses"`  // cache repoints
	Deopts    int64 `json:"deopts"`     // sites gone megamorphic
	Fusions   int64 `json:"fusions"`    // fused superinstruction sites
	FusedExec int64 `json:"fused_exec"` // fused-form executions
}

// installFieldQuick records a quickened instance-field access at pc.
// No-op (returns false) when the resolved field is static or the
// offset is unassigned — those sites stay generic.
func installFieldQuick(m *Method, pc int, kind QuickKind, fld *Field, st *QuickStats) bool {
	if fld == nil || fld.IsStatic() || fld.Offset < 0 {
		return false
	}
	qt := m.quickTable()
	if qt.Ops[pc].Kind != QNone {
		return true
	}
	qt.Ops[pc] = QuickOp{
		Kind:   kind,
		Op:     m.Code.Bytecode[pc],
		Offset: int32(fld.Offset),
		Wide:   fld.Desc == "J" || fld.Desc == "D",
		Desc:   fld.Desc,
		Field:  fld,
		Len:    int32(classfile.InstrLen(m.Code.Bytecode, pc)),
	}
	qt.pack(pc)
	st.Sites++
	return true
}

// installStaticQuick records a quickened static-field access at pc.
// Callers must only install once the declaring class is initialized —
// the generic handler owns the init-and-reexecute dance.
func installStaticQuick(m *Method, pc int, kind QuickKind, fld *Field, st *QuickStats) bool {
	if fld == nil || !fld.IsStatic() || fld.Class.State != StateInitialized {
		return false
	}
	qt := m.quickTable()
	if qt.Ops[pc].Kind != QNone {
		return true
	}
	qt.Ops[pc] = QuickOp{
		Kind:  kind,
		Op:    m.Code.Bytecode[pc],
		Wide:  fld.Desc == "J" || fld.Desc == "D",
		Desc:  fld.Desc,
		Field: fld,
		Len:   int32(classfile.InstrLen(m.Code.Bytecode, pc)),
	}
	qt.pack(pc)
	st.Sites++
	return true
}

// installInvokeQuick records a quickened call site at pc. For
// QInvokeStatic the declaring class must already be initialized. For
// QInvokeVirtual, target is the resolved declaration and the IC
// starts cold (first execution primes it).
func installInvokeQuick(m *Method, pc int, kind QuickKind, target *Method, st *QuickStats) bool {
	if target == nil {
		return false
	}
	if kind == QInvokeStatic && target.Class.State != StateInitialized {
		return false
	}
	qt := m.quickTable()
	if qt.Ops[pc].Kind != QNone {
		return true
	}
	qt.Ops[pc] = QuickOp{
		Kind:   kind,
		Op:     m.Code.Bytecode[pc],
		Method: target,
		Len:    int32(classfile.InstrLen(m.Code.Bytecode, pc)),
	}
	qt.pack(pc)
	st.Sites++
	return true
}

// installResolvedQuick records a QConst for an ldc, or a QNew,
// QCheckcast or QInstanceof, installed by the generic handler once the
// instruction has succeeded there. q carries the kind-specific fields;
// the opcode and length come from the bytecode.
func installResolvedQuick(m *Method, pc int, q QuickOp, st *QuickStats) {
	qt := m.quickTable()
	if qt.Ops[pc].Kind != QNone {
		return
	}
	code := m.Code.Bytecode
	q.Op = code[pc]
	q.Len = int32(classfile.InstrLen(code, pc))
	qt.Ops[pc] = q
	qt.pack(pc)
	st.Sites++
}

// icLookup dispatches a quickened virtual call through the site's
// monomorphic inline cache, repointing it on miss and freezing it
// megamorphic after icMissLimit misses. Returns nil when the receiver
// class has no matching method (the caller raises the error the
// generic path would).
func icLookup(op *QuickOp, recv *Class, st *QuickStats) *Method {
	if op.ICClass == recv {
		st.ICHits++
		return op.ICMethod
	}
	target := recv.FindMethod(op.Method.Name, op.Method.Desc)
	if target == nil {
		return nil
	}
	if op.Misses > icMissLimit {
		// Megamorphic: stop touching the cache.
		return target
	}
	st.ICMisses++
	op.Misses++
	if op.Misses > icMissLimit {
		st.Deopts++
		op.ICClass, op.ICMethod = nil, nil
		return target
	}
	op.ICClass, op.ICMethod = recv, target
	return target
}

// pairCounts is a VM's adjacent-opcode attribution table. fuse only
// asks about pairs ending in getfield, ifeq, iadd or if_icmplt, so
// those four successors are the only ones counted, each in a row
// indexed by the preceding opcode; every other successor lands in the
// discarded row 0.
type pairCounts struct {
	rows [5][256]int64
}

// pairRow maps a successor opcode to its pairCounts row.
var pairRow = [256]uint8{
	classfile.OpGetfield: 1,
	classfile.OpIfeq:     2,
	classfile.OpIadd:     3,
	classfile.OpIfIcmplt: 4,
}

// note counts one dynamic execution of the pair (prev, op).
func (p *pairCounts) note(prev, op byte) { p.rows[pairRow[op]][prev]++ }

// hot reports whether the pair (prev, op) has run often enough to
// fuse.
func (p *pairCounts) hot(prev, op byte) bool {
	r := pairRow[op]
	return r != 0 && p.rows[r][prev] >= fusionHot
}

// aloadIndex decodes an aload/aload_N opcode's local index, or -1.
func aloadIndex(code []byte, pc int) int {
	op := code[pc]
	switch {
	case op >= classfile.OpAload0 && op <= classfile.OpAload3:
		return int(op - classfile.OpAload0)
	case op == classfile.OpAload:
		return int(code[pc+1])
	}
	return -1
}

// intishDesc reports whether a field descriptor is a single-slot
// int-family type — the kinds an ifeq can test directly.
func intishDesc(d string) bool {
	switch d {
	case "I", "Z", "B", "C", "S":
		return true
	}
	return false
}

// iloadIndex decodes an iload/iload_N opcode's local index, or -1.
func iloadIndex(code []byte, pc int) int {
	op := code[pc]
	switch {
	case op >= classfile.OpIload0 && op <= classfile.OpIload3:
		return int(op - classfile.OpIload0)
	case op == classfile.OpIload:
		return int(code[pc+1])
	}
	return -1
}

// fuse runs the warm-up rewrite over one method: the superinstruction
// pass (adjacent pairs that the VM's dynamic attribution counters show
// to be hot, and whose semantics we have a fused form for, collapse
// into a single side-table entry at the first instruction's pc), then
// the predecode pass. A fused entry's second pc is left in place, so
// branches that land between the two halves still execute the unfused
// form — fusion needs no branch-target analysis to stay safe.
func (qt *QuickTable) fuse(m *Method, pairs *pairCounts, st *QuickStats) {
	qt.passes++
	if qt.passes >= 2 {
		qt.fused = true
	}
	code := m.Code.Bytecode
	for pc := 0; pc < len(code); {
		ln := classfile.InstrLen(code, pc)
		pc2 := pc + ln
		if pc2 >= len(code) {
			pc = pc2
			continue
		}
		k := qt.Ops[pc].Kind
		if k == QGetfield {
			// A quickened getfield whose value feeds a hot ifeq (flag
			// tests, null-sentinel ints) fuses into QGetfieldIfeq.
			// Only the single-slot int family fuses — ifeq pops an
			// int, so the fused handler can test the raw slot without
			// the push/pop round trip.
			g := qt.Ops[pc]
			if !g.Wide && code[pc2] == classfile.OpIfeq && intishDesc(g.Desc) &&
				pairs.hot(code[pc], code[pc2]) {
				qt.Ops[pc] = QuickOp{
					Kind:   QGetfieldIfeq,
					Op:     code[pc],
					A:      int32(pc2 + int(i16(code, pc2+1))),
					Offset: g.Offset,
					Desc:   g.Desc,
					Field:  g.Field,
					Len:    g.Len + 3,
				}
				qt.pack(pc)
				st.Fusions++
			}
			pc = pc2
			continue
		}
		// A retry pass may overwrite its own predecoded QLoad at the
		// pair's first pc; anything else installed there stays.
		if k != QNone && k != QLoad {
			pc = pc2
			continue
		}
		if idx := aloadIndex(code, pc); idx >= 0 {
			g := &qt.Ops[pc2]
			if g.Kind == QGetfield && pairs.hot(code[pc], code[pc2]) {
				qt.Ops[pc] = QuickOp{
					Kind:   QAloadGetfield,
					Op:     code[pc],
					A:      int32(idx),
					Offset: g.Offset,
					Wide:   g.Wide,
					Desc:   g.Desc,
					Field:  g.Field,
					Len:    int32(ln) + g.Len,
				}
				qt.pack(pc)
				st.Fusions++
			}
		} else if idx := iloadIndex(code, pc); idx >= 0 {
			if code[pc2] == classfile.OpIadd && pairs.hot(code[pc], code[pc2]) {
				qt.Ops[pc] = QuickOp{
					Kind: QIloadIadd,
					Op:   code[pc],
					A:    int32(idx),
					Len:  int32(ln) + 1,
				}
				qt.pack(pc)
				st.Fusions++
			} else if code[pc2] == classfile.OpIfIcmplt && pairs.hot(code[pc], code[pc2]) {
				// The classic counted-loop backedge: iload of the
				// bound then if_icmplt. The branch target does not fit
				// the packed immediate, so handlers read it from the
				// full entry's Offset.
				qt.Ops[pc] = QuickOp{
					Kind:   QIloadIfIcmplt,
					Op:     code[pc],
					A:      int32(idx),
					Offset: int32(pc2 + int(i16(code, pc2+1))),
					Len:    int32(ln) + 3,
				}
				qt.pack(pc)
				st.Fusions++
			}
		}
		pc = pc2
	}
	qt.predecode(m)
}

// predecode walks a warm method's bytecode and installs pre-decoded
// forms at every remaining generic pc whose opcode has one: loads,
// stores, constants (ldc2_w included), int and long arithmetic
// (divisions included), i2l/l2i/lcmp, branches, iinc, dup, pop,
// array loads, stores and length, and returns. With the hot field and
// call sites already quickened lazily, a warm method then runs long
// stretches entirely out of the side table, which the Doppio engine
// executes in a tight inner loop without the outer dispatch
// bookkeeping. Forms that can throw raise from that loop at their own
// pc. Wide-prefixed forms, switches and the rarer conversions stay
// generic; ldc, new, checkcast and instanceof (which may need class
// loading, initialization or interning first) are installed by their
// generic handlers once they have succeeded.
func (qt *QuickTable) predecode(m *Method) {
	code := m.Code.Bytecode
	for pc := 0; pc < len(code); {
		ln := classfile.InstrLen(code, pc)
		if qt.Ops[pc].Kind != QNone {
			pc += ln
			continue
		}
		op := code[pc]
		q := QuickOp{Op: op, Len: int32(ln)}
		switch {
		case op >= classfile.OpIload0 && op <= classfile.OpIload3:
			q.Kind, q.A = QLoad, int32(op-classfile.OpIload0)
		case op >= classfile.OpFload0 && op <= classfile.OpFload3:
			q.Kind, q.A = QLoad, int32(op-classfile.OpFload0)
		case op >= classfile.OpAload0 && op <= classfile.OpAload3:
			q.Kind, q.A = QLoad, int32(op-classfile.OpAload0)
		case op == classfile.OpIload || op == classfile.OpFload || op == classfile.OpAload:
			q.Kind, q.A = QLoad, int32(code[pc+1])
		case op >= classfile.OpLload0 && op <= classfile.OpLload3:
			q.Kind, q.A = QLoad2, int32(op-classfile.OpLload0)
		case op >= classfile.OpDload0 && op <= classfile.OpDload3:
			q.Kind, q.A = QLoad2, int32(op-classfile.OpDload0)
		case op == classfile.OpLload || op == classfile.OpDload:
			q.Kind, q.A = QLoad2, int32(code[pc+1])
		case op >= classfile.OpIstore0 && op <= classfile.OpIstore3:
			q.Kind, q.A = QStore, int32(op-classfile.OpIstore0)
		case op >= classfile.OpFstore0 && op <= classfile.OpFstore3:
			q.Kind, q.A = QStore, int32(op-classfile.OpFstore0)
		case op >= classfile.OpAstore0 && op <= classfile.OpAstore3:
			q.Kind, q.A = QStore, int32(op-classfile.OpAstore0)
		case op == classfile.OpIstore || op == classfile.OpFstore || op == classfile.OpAstore:
			q.Kind, q.A = QStore, int32(code[pc+1])
		case op >= classfile.OpLstore0 && op <= classfile.OpLstore3:
			q.Kind, q.A = QStore2, int32(op-classfile.OpLstore0)
		case op >= classfile.OpDstore0 && op <= classfile.OpDstore3:
			q.Kind, q.A = QStore2, int32(op-classfile.OpDstore0)
		case op == classfile.OpLstore || op == classfile.OpDstore:
			q.Kind, q.A = QStore2, int32(code[pc+1])
		case op == classfile.OpAconstNull:
			q.Kind = QConst // K stays nil
		case op >= classfile.OpIconstM1 && op <= classfile.OpIconst5:
			q.Kind, q.K = QConst, boxI(int32(op)-classfile.OpIconst0)
		case op >= classfile.OpFconst0 && op <= classfile.OpFconst2:
			q.Kind, q.K = QConst, float64(op-classfile.OpFconst0)
		case op == classfile.OpBipush:
			q.Kind, q.K = QConst, boxI(int32(int8(code[pc+1])))
		case op == classfile.OpSipush:
			q.Kind, q.K = QConst, boxI(int32(i16(code, pc+1)))
		case op == classfile.OpGoto:
			q.Kind, q.A = QGoto, int32(pc+int(i16(code, pc+1)))
		case op >= classfile.OpIfeq && op <= classfile.OpIfle:
			q.Kind, q.A = QIf, int32(pc+int(i16(code, pc+1)))
		case op >= classfile.OpIfIcmpeq && op <= classfile.OpIfIcmple:
			q.Kind, q.A = QIfICmp, int32(pc+int(i16(code, pc+1)))
		case op == classfile.OpIfAcmpeq || op == classfile.OpIfAcmpne:
			q.Kind, q.A = QIfACmp, int32(pc+int(i16(code, pc+1)))
		case op == classfile.OpIfnull || op == classfile.OpIfnonnull:
			q.Kind, q.A = QIfNull, int32(pc+int(i16(code, pc+1)))
		case op == classfile.OpLconst0 || op == classfile.OpLconst1:
			q.Kind, q.K = QConst2, jlong.FromInt32(int32(op)-classfile.OpLconst0)
		case op == classfile.OpDconst0 || op == classfile.OpDconst1:
			q.Kind, q.K = QConst2, float64(op-classfile.OpDconst0)
		case op == classfile.OpLdc2W:
			switch rc := &m.Class.CP[u16(code, pc+1)]; rc.Tag {
			case classfile.TagLong:
				q.Kind, q.K = QConst2, jlong.FromInt64(rc.Long)
			case classfile.TagDouble:
				q.Kind, q.K = QConst2, rc.Double
			}
		case op == classfile.OpIadd || op == classfile.OpIsub || op == classfile.OpImul ||
			op == classfile.OpIdiv || op == classfile.OpIrem ||
			op == classfile.OpIand || op == classfile.OpIor || op == classfile.OpIxor ||
			op == classfile.OpIshl || op == classfile.OpIshr || op == classfile.OpIushr:
			q.Kind = QArith
		case op == classfile.OpLadd || op == classfile.OpLsub || op == classfile.OpLmul ||
			op == classfile.OpLdiv || op == classfile.OpLrem ||
			op == classfile.OpLand || op == classfile.OpLor || op == classfile.OpLxor:
			q.Kind = QLArith
		case op == classfile.OpI2l:
			q.Kind = QI2L
		case op == classfile.OpL2i:
			q.Kind = QL2I
		case op == classfile.OpLcmp:
			q.Kind = QLcmp
		case op >= classfile.OpIaload && op <= classfile.OpSaload:
			q.Kind = QArrayLoad
		case op >= classfile.OpIastore && op <= classfile.OpSastore:
			q.Kind = QArrayStore
		case op == classfile.OpArraylength:
			q.Kind = QArrayLength
		case op == classfile.OpIinc:
			q.Kind, q.A, q.Offset = QIinc, int32(code[pc+1]), int32(int8(code[pc+2]))
		case op == classfile.OpDup:
			q.Kind = QDup
		case op == classfile.OpPop:
			q.Kind = QPop
		case op >= classfile.OpIreturn && op <= classfile.OpAreturn:
			q.Kind, q.Desc = QReturn, m.RetDesc
		case op == classfile.OpReturn:
			q.Kind, q.Desc = QReturn, "V"
		}
		if q.Kind != QNone {
			qt.Ops[pc] = q
			qt.pack(pc)
		}
		pc += ln
	}
}
