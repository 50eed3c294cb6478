package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Arithmetic and casting on datums. The rules follow Teradata/ANSI practice:
// integer op integer stays integral, any FLOAT operand promotes to FLOAT,
// DECIMAL arithmetic keeps fixed-point semantics, and DATE supports the
// Teradata-specific date +/- integer day arithmetic the paper tracks as the
// "Date arithmetics" feature (Table 2).

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// Supported operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o ArithOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "MOD"
	}
	return "?"
}

// ArithResultType derives the static result type of l op r, mirroring the
// runtime promotion in Arith. It returns an error for operand combinations
// Arith would reject.
func ArithResultType(op ArithOp, l, r T) (T, error) {
	// DATE +/- integer, DATE - DATE.
	if l.Kind == KindDate || r.Kind == KindDate {
		switch {
		case l.Kind == KindDate && r.Kind == KindDate && op == OpSub:
			return Int, nil
		case l.Kind == KindDate && r.IsNumeric() && (op == OpAdd || op == OpSub):
			return Date, nil
		case r.Kind == KindDate && l.IsNumeric() && op == OpAdd:
			return Date, nil
		}
		return Null, fmt.Errorf("types: invalid date arithmetic %s %s %s", l, op, r)
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return Null, fmt.Errorf("types: invalid operands %s %s %s", l, op, r)
	}
	if l.Kind == KindFloat || r.Kind == KindFloat || op == OpDiv && l.Kind != KindDecimal && r.Kind != KindDecimal {
		// Integer division stays integral in Teradata; we keep it integral
		// for INT/INT and promote only when a FLOAT is involved.
		if l.Kind == KindFloat || r.Kind == KindFloat {
			return Float, nil
		}
	}
	if l.Kind == KindDecimal || r.Kind == KindDecimal {
		ls, rs := 0, 0
		if l.Kind == KindDecimal {
			ls = l.Scale
		}
		if r.Kind == KindDecimal {
			rs = r.Scale
		}
		switch op {
		case OpMul:
			return Decimal(18, ls+rs), nil
		case OpDiv:
			return Decimal(18, maxInt(maxInt(ls, rs), 4)), nil
		default:
			return Decimal(18, maxInt(ls, rs)), nil
		}
	}
	if l.Kind == KindBigInt || r.Kind == KindBigInt {
		return BigInt, nil
	}
	return Int, nil
}

// Arith evaluates l op r with SQL NULL propagation.
func Arith(op ArithOp, l, r Datum) (Datum, error) {
	rt, err := ArithResultType(op, l.Type(), r.Type())
	if err != nil {
		return Datum{}, err
	}
	if l.Null || r.Null {
		return NewNull(rt.Kind), nil
	}
	switch rt.Kind {
	case KindDate:
		days := r.AsInt()
		d := l
		if l.K != KindDate {
			d, days = r, l.AsInt()
		}
		if op == OpSub {
			days = -days
		}
		return AddDays(d, days), nil
	case KindInt, KindBigInt:
		if l.K == KindDate && r.K == KindDate {
			return NewInt(DiffDays(l, r)), nil
		}
		return intArith(op, rt.Kind, l.AsInt(), r.AsInt())
	case KindFloat:
		return floatArith(op, l.AsFloat(), r.AsFloat())
	case KindDecimal:
		return decimalArith(op, rt.Scale, l, r)
	}
	return Datum{}, fmt.Errorf("types: invalid arithmetic %s %s %s", l.K, op, r.K)
}

func intArith(op ArithOp, k Kind, a, b int64) (Datum, error) {
	var v int64
	switch op {
	case OpAdd:
		v = a + b
	case OpSub:
		v = a - b
	case OpMul:
		v = a * b
	case OpDiv:
		if b == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		v = a / b
	case OpMod:
		if b == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		v = a % b
	}
	return Datum{K: k, I: v}, nil
}

func floatArith(op ArithOp, a, b float64) (Datum, error) {
	var v float64
	switch op {
	case OpAdd:
		v = a + b
	case OpSub:
		v = a - b
	case OpMul:
		v = a * b
	case OpDiv:
		if b == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		v = a / b
	case OpMod:
		if b == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		v = float64(int64(a) % int64(b))
	}
	return NewFloat(v), nil
}

func decimalArith(op ArithOp, outScale int, l, r Datum) (Datum, error) {
	switch op {
	case OpAdd, OpSub:
		a := l.DecimalScaled(outScale)
		b := r.DecimalScaled(outScale)
		if op == OpSub {
			b = -b
		}
		return NewDecimal(a+b, outScale), nil
	case OpMul:
		ls, rs := decScale(l), decScale(r)
		v := l.DecimalScaled(ls) * r.DecimalScaled(rs)
		// v has scale ls+rs; rescale to outScale.
		return rescale(v, ls+rs, outScale), nil
	case OpDiv:
		rs := decScale(r)
		den := r.DecimalScaled(rs)
		if den == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		// Scale numerator up so the quotient has outScale+rs digits of scale
		// before dividing by the rs-scaled denominator.
		num := l.DecimalScaled(decScale(l)) * pow10(outScale+rs-decScale(l))
		return NewDecimal(num/den, outScale), nil
	case OpMod:
		s := maxInt(decScale(l), decScale(r))
		b := r.DecimalScaled(s)
		if b == 0 {
			return Datum{}, fmt.Errorf("types: division by zero")
		}
		return rescale(l.DecimalScaled(s)%b, s, outScale), nil
	}
	return Datum{}, fmt.Errorf("types: bad decimal op")
}

func decScale(d Datum) int {
	if d.K == KindDecimal {
		return int(d.Scale)
	}
	return 0
}

func rescale(v int64, from, to int) Datum {
	switch {
	case from == to:
	case from < to:
		v *= pow10(to - from)
	default:
		v /= pow10(from - to)
	}
	return NewDecimal(v, to)
}

// Neg returns the arithmetic negation of a numeric or interval datum.
func Neg(d Datum) (Datum, error) {
	if d.Null {
		return d, nil
	}
	switch d.K {
	case KindInt, KindBigInt, KindDecimal, KindInterval:
		out := d
		out.I = -d.I
		return out, nil
	case KindFloat:
		return NewFloat(-d.F), nil
	}
	return Datum{}, fmt.Errorf("types: cannot negate %s", d.K)
}

// spaces is the run CHAR padding is cut from: one allocation per padded
// value (the concatenation) whatever the toolchain's strings.Repeat does.
const spaces = "                                                                "

// padRight returns s followed by n spaces.
func padRight(s string, n int) string {
	if n <= len(spaces) {
		return s + spaces[:n]
	}
	return s + strings.Repeat(" ", n)
}

// Cast converts d to the target type with SQL CAST semantics.
func Cast(d Datum, to T) (Datum, error) {
	if d.Null {
		return NewNull(to.Kind), nil
	}
	switch to.Kind {
	case KindInt, KindBigInt:
		switch {
		case d.Type().IsNumeric():
			return Datum{K: to.Kind, I: d.AsInt()}, nil
		case d.Type().IsString():
			v, err := strconv.ParseInt(strings.TrimSpace(d.S), 10, 64)
			if err != nil {
				return Datum{}, fmt.Errorf("types: cannot cast %q to %s", d.S, to)
			}
			return Datum{K: to.Kind, I: v}, nil
		case d.K == KindDate:
			// Teradata CAST(date AS INTEGER) yields the internal encoding.
			return Datum{K: to.Kind, I: TeradataDateInt(d)}, nil
		case d.K == KindBool:
			return Datum{K: to.Kind, I: d.I}, nil
		}
	case KindFloat:
		switch {
		case d.Type().IsNumeric():
			return NewFloat(d.AsFloat()), nil
		case d.Type().IsString():
			v, err := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
			if err != nil {
				return Datum{}, fmt.Errorf("types: cannot cast %q to FLOAT", d.S)
			}
			return NewFloat(v), nil
		}
	case KindDecimal:
		if d.Type().IsNumeric() {
			return NewDecimal(d.DecimalScaled(to.Scale), to.Scale), nil
		}
		if d.Type().IsString() {
			f, err := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
			if err != nil {
				return Datum{}, fmt.Errorf("types: cannot cast %q to %s", d.S, to)
			}
			return Cast(NewFloat(f), to)
		}
	case KindChar, KindVarChar:
		s := d.String()
		if to.Length > 0 && len(s) > to.Length {
			s = s[:to.Length]
		}
		if to.Kind == KindChar && to.Length > 0 && len(s) < to.Length {
			s = padRight(s, to.Length-len(s))
		}
		return Datum{K: to.Kind, S: s}, nil
	case KindDate:
		switch {
		case d.K == KindDate:
			return d, nil
		case d.Type().IsString():
			return ParseDateLiteral(strings.TrimRight(d.S, " "))
		case d.Type().IsNumeric():
			// Teradata CAST(int AS DATE) interprets the internal encoding.
			return DateFromTeradataInt(d.AsInt()), nil
		case d.K == KindTimestamp:
			secs := d.I / microsPerSecond
			days := secs / 86400
			if secs%86400 < 0 {
				days--
			}
			return NewDateEnc(EpochDaysToDate(days)), nil
		}
	case KindTime:
		if d.K == KindTime {
			return d, nil
		}
		if d.Type().IsString() {
			return ParseTimeLiteral(strings.TrimRight(d.S, " "))
		}
	case KindTimestamp:
		switch {
		case d.K == KindTimestamp:
			return d, nil
		case d.K == KindDate:
			return NewTimestamp(DateToEpochDays(d.I) * 86400 * microsPerSecond), nil
		case d.Type().IsString():
			return ParseTimestampLiteral(strings.TrimRight(d.S, " "))
		}
	case KindBool:
		switch {
		case d.K == KindBool:
			return d, nil
		case d.Type().IsNumeric():
			return NewBool(d.AsInt() != 0), nil
		}
	case KindBytes:
		if d.K == KindBytes {
			return d, nil
		}
		if d.Type().IsString() {
			return NewBytes([]byte(d.S)), nil
		}
	case KindPeriod:
		if d.K == KindPeriod {
			return d, nil
		}
	}
	return Datum{}, fmt.Errorf("types: cannot cast %s to %s", d.K, to)
}

// CanCompare reports whether values of the two types are comparable without
// an explicit cast, under ANSI rules (the Teradata DATE/INT exception is a
// binder-level rewrite, not a type-system rule).
func CanCompare(a, b T) bool {
	if a.Kind == KindNull || b.Kind == KindNull {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	if a.IsString() && b.IsString() {
		return true
	}
	return a.Kind == b.Kind
}

// CommonSupertype returns the type both operands coerce to for comparison or
// set-operation alignment.
func CommonSupertype(a, b T) (T, error) {
	if a.Kind == KindNull {
		return b, nil
	}
	if b.Kind == KindNull {
		return a, nil
	}
	if a.Kind == b.Kind {
		if a.Kind == KindDecimal && b.Scale > a.Scale {
			return b, nil
		}
		return a, nil
	}
	if a.IsNumeric() && b.IsNumeric() {
		order := func(k Kind) int {
			switch k {
			case KindInt:
				return 0
			case KindBigInt:
				return 1
			case KindDecimal:
				return 2
			default:
				return 3 // float
			}
		}
		if order(a.Kind) >= order(b.Kind) {
			return a, nil
		}
		return b, nil
	}
	if a.IsString() && b.IsString() {
		return VarChar(maxInt(a.Length, b.Length)), nil
	}
	if (a.Kind == KindDate && b.Kind == KindTimestamp) || (a.Kind == KindTimestamp && b.Kind == KindDate) {
		return Timestamp, nil
	}
	return Null, fmt.Errorf("types: no common supertype for %s and %s", a, b)
}
