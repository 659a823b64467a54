package smt

import (
	"fmt"
	"strconv"
	"strings"
)

// BV is a compiled bit-vector term: a fixed-width vector of SAT literals,
// least-significant bit first. BVs are produced by bit-blasting, the same
// strategy CBMC-generated formulas rely on; this is what makes "a 32-bit
// variable forces many per-bit decisions" (paper §3.4) literally true here.
type BV struct{ bits []Bool }

// Width returns the bit width of the term.
func (v BV) Width() int { return len(v.bits) }

// Bit returns the i-th bit (0 = least significant).
func (v BV) Bit(i int) Bool { return v.bits[i] }

// BVConst returns a constant of the given width.
func (bd *Builder) BVConst(value uint64, width int) BV {
	bits := make([]Bool, width)
	for i := 0; i < width; i++ {
		bits[i] = bd.BoolConst(value>>uint(i)&1 == 1)
	}
	return BV{bits}
}

// NewBV introduces a fresh unconstrained bit-vector variable.
func (bd *Builder) NewBV(width int) BV {
	bits := make([]Bool, width)
	for i := range bits {
		bits[i] = bd.NewBool()
	}
	return BV{bits}
}

// NamedBV introduces a fresh bit-vector variable whose per-bit SAT variables
// carry the name (name.0, name.1, ...) for model extraction and debugging.
// The bit names are substrings of one string, so naming costs one
// allocation per vector rather than one per bit.
func (bd *Builder) NamedBV(name string, width int) BV {
	bits := make([]Bool, width)
	var sb strings.Builder
	sb.Grow(width * (len(name) + len(".00")))
	for i := range bits {
		start := sb.Len()
		sb.WriteString(name)
		sb.WriteByte('.')
		sb.WriteString(strconv.Itoa(i))
		bits[i] = bd.NamedBool(sb.String()[start:])
	}
	v := BV{bits}
	bd.bvByName[name] = v
	return v
}

func (bd *Builder) checkSameWidth(a, b BV) {
	if a.Width() != b.Width() {
		panic(fmt.Sprintf("smt: width mismatch %d vs %d", a.Width(), b.Width()))
	}
}

// BVNot returns the bitwise complement.
func (bd *Builder) BVNot(a BV) BV {
	bits := make([]Bool, a.Width())
	for i := range bits {
		bits[i] = bd.Not(a.bits[i])
	}
	return BV{bits}
}

// BVAnd returns the bitwise conjunction.
func (bd *Builder) BVAnd(a, b BV) BV {
	bd.checkSameWidth(a, b)
	bits := make([]Bool, a.Width())
	for i := range bits {
		bits[i] = bd.And(a.bits[i], b.bits[i])
	}
	return BV{bits}
}

// BVOr returns the bitwise disjunction.
func (bd *Builder) BVOr(a, b BV) BV {
	bd.checkSameWidth(a, b)
	bits := make([]Bool, a.Width())
	for i := range bits {
		bits[i] = bd.Or(a.bits[i], b.bits[i])
	}
	return BV{bits}
}

// BVXor returns the bitwise exclusive or.
func (bd *Builder) BVXor(a, b BV) BV {
	bd.checkSameWidth(a, b)
	bits := make([]Bool, a.Width())
	for i := range bits {
		bits[i] = bd.Xor(a.bits[i], b.bits[i])
	}
	return BV{bits}
}

// fullAdder returns (sum, carryOut).
func (bd *Builder) fullAdder(a, b, cin Bool) (Bool, Bool) {
	axb := bd.Xor(a, b)
	sum := bd.Xor(axb, cin)
	cout := bd.Or(bd.And(a, b), bd.And(axb, cin))
	return sum, cout
}

// BVAdd returns a+b modulo 2^width (ripple-carry adder).
func (bd *Builder) BVAdd(a, b BV) BV {
	bd.checkSameWidth(a, b)
	bits := make([]Bool, a.Width())
	carry := bd.False()
	for i := 0; i < a.Width(); i++ {
		bits[i], carry = bd.fullAdder(a.bits[i], b.bits[i], carry)
	}
	return BV{bits}
}

// BVSub returns a-b modulo 2^width (a + ~b + 1).
func (bd *Builder) BVSub(a, b BV) BV {
	bd.checkSameWidth(a, b)
	bits := make([]Bool, a.Width())
	carry := bd.True()
	for i := 0; i < a.Width(); i++ {
		bits[i], carry = bd.fullAdder(a.bits[i], bd.Not(b.bits[i]), carry)
	}
	return BV{bits}
}

// BVNeg returns two's-complement negation.
func (bd *Builder) BVNeg(a BV) BV {
	return bd.BVSub(bd.BVConst(0, a.Width()), a)
}

// BVMul returns a*b modulo 2^width (shift-add over b's bits).
func (bd *Builder) BVMul(a, b BV) BV {
	bd.checkSameWidth(a, b)
	w := a.Width()
	acc := bd.BVConst(0, w)
	for i := 0; i < w; i++ {
		// Partial product: (a << i) gated by b[i].
		pp := make([]Bool, w)
		for j := 0; j < w; j++ {
			if j < i {
				pp[j] = bd.False()
			} else {
				pp[j] = bd.And(a.bits[j-i], b.bits[i])
			}
		}
		acc = bd.BVAdd(acc, BV{pp})
	}
	return acc
}

// BVShlConst returns a << k.
func (bd *Builder) BVShlConst(a BV, k int) BV {
	w := a.Width()
	bits := make([]Bool, w)
	for i := 0; i < w; i++ {
		if i < k {
			bits[i] = bd.False()
		} else {
			bits[i] = a.bits[i-k]
		}
	}
	return BV{bits}
}

// BVLshrConst returns a >> k (logical).
func (bd *Builder) BVLshrConst(a BV, k int) BV {
	w := a.Width()
	bits := make([]Bool, w)
	for i := 0; i < w; i++ {
		if i+k < w {
			bits[i] = a.bits[i+k]
		} else {
			bits[i] = bd.False()
		}
	}
	return BV{bits}
}

// BVZeroExt widens a to the given width with zero bits.
func (bd *Builder) BVZeroExt(a BV, width int) BV {
	bits := make([]Bool, width)
	for i := 0; i < width; i++ {
		if i < a.Width() {
			bits[i] = a.bits[i]
		} else {
			bits[i] = bd.False()
		}
	}
	return BV{bits}
}

// BVSignExt widens a to the given width replicating the sign bit.
func (bd *Builder) BVSignExt(a BV, width int) BV {
	bits := make([]Bool, width)
	msb := a.bits[a.Width()-1]
	for i := 0; i < width; i++ {
		if i < a.Width() {
			bits[i] = a.bits[i]
		} else {
			bits[i] = msb
		}
	}
	return BV{bits}
}

// BVExtract returns bits [lo, hi] inclusive as a narrower vector.
func (bd *Builder) BVExtract(a BV, hi, lo int) BV {
	bits := make([]Bool, hi-lo+1)
	copy(bits, a.bits[lo:hi+1])
	return BV{bits}
}

// BVEq returns the Boolean a = b.
func (bd *Builder) BVEq(a, b BV) Bool {
	bd.checkSameWidth(a, b)
	acc := bd.True()
	for i := 0; i < a.Width(); i++ {
		acc = bd.And(acc, bd.Iff(a.bits[i], b.bits[i]))
	}
	return acc
}

// BVUlt returns the Boolean a < b (unsigned).
func (bd *Builder) BVUlt(a, b BV) Bool {
	bd.checkSameWidth(a, b)
	lt := bd.False()
	for i := 0; i < a.Width(); i++ { // LSB to MSB; MSB dominates
		bitLt := bd.And(bd.Not(a.bits[i]), b.bits[i])
		bitEq := bd.Iff(a.bits[i], b.bits[i])
		lt = bd.Or(bitLt, bd.And(bitEq, lt))
	}
	return lt
}

// BVUle returns a <= b (unsigned).
func (bd *Builder) BVUle(a, b BV) Bool { return bd.Not(bd.BVUlt(b, a)) }

// BVSlt returns a < b (signed two's complement): flip sign bits, compare
// unsigned.
func (bd *Builder) BVSlt(a, b BV) Bool {
	bd.checkSameWidth(a, b)
	w := a.Width()
	af := make([]Bool, w)
	bf := make([]Bool, w)
	copy(af, a.bits)
	copy(bf, b.bits)
	af[w-1] = bd.Not(af[w-1])
	bf[w-1] = bd.Not(bf[w-1])
	return bd.BVUlt(BV{af}, BV{bf})
}

// BVSle returns a <= b (signed).
func (bd *Builder) BVSle(a, b BV) Bool { return bd.Not(bd.BVSlt(b, a)) }

// BVIte returns if c then t else e, bitwise.
func (bd *Builder) BVIte(c Bool, t, e BV) BV {
	bd.checkSameWidth(t, e)
	bits := make([]Bool, t.Width())
	for i := range bits {
		bits[i] = bd.IteBool(c, t.bits[i], e.bits[i])
	}
	return BV{bits}
}

// BVIsZero returns the Boolean a = 0.
func (bd *Builder) BVIsZero(a BV) Bool {
	acc := bd.True()
	for _, b := range a.bits {
		acc = bd.And(acc, bd.Not(b))
	}
	return acc
}

// BoolToBV widens a Boolean to a bit-vector (0 or 1).
func (bd *Builder) BoolToBV(b Bool, width int) BV {
	bits := make([]Bool, width)
	bits[0] = b
	for i := 1; i < width; i++ {
		bits[i] = bd.False()
	}
	return BV{bits}
}
