// Package isa defines the instruction set of the processor-coupled node:
// machine values, operations, wide instruction words, compiled programs,
// and a textual assembly format. The compiler emits isa.Program values and
// the simulator executes them; constant folding in the compiler and
// execution in the simulator share the evaluation semantics defined here.
package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Value is one machine word. Integers and floating-point numbers reside in
// the same register files (Section 3 of the paper), so a Value carries a
// tag distinguishing the two.
type Value struct {
	F       float64
	I       int64
	IsFloat bool
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{I: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{F: f, IsFloat: true} }

// Bool returns an integer Value of 1 or 0.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// AsInt returns the value as an integer, truncating floats.
func (v Value) AsInt() int64 {
	if v.IsFloat {
		return int64(v.F)
	}
	return v.I
}

// AsFloat returns the value as a float, converting integers.
func (v Value) AsFloat() float64 {
	if v.IsFloat {
		return v.F
	}
	return float64(v.I)
}

// Truthy reports whether the value is non-zero.
func (v Value) Truthy() bool {
	if v.IsFloat {
		return v.F != 0
	}
	return v.I != 0
}

// Equal reports exact equality of tag and payload. NaN != NaN.
func (v Value) Equal(w Value) bool {
	if v.IsFloat != w.IsFloat {
		return false
	}
	if v.IsFloat {
		return v.F == w.F
	}
	return v.I == w.I
}

func (v Value) String() string {
	if v.IsFloat {
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		// Keep a trailing marker so the text form round-trips the tag.
		if _, err := strconv.ParseInt(s, 10, 64); err == nil {
			s += ".0"
		}
		if math.IsInf(v.F, 1) {
			return "+Inf"
		}
		if math.IsInf(v.F, -1) {
			return "-Inf"
		}
		return s
	}
	return strconv.FormatInt(v.I, 10)
}

// ParseValue parses the textual form produced by Value.String.
func ParseValue(s string) (Value, error) {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Value{}, fmt.Errorf("isa: invalid value %q", s)
	}
	return Float(f), nil
}
