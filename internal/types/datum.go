package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Datum is a single SQL value. The zero value is the SQL NULL.
//
// Representation by kind:
//
//	Bool              I (0 or 1)
//	Int, BigInt       I
//	Float             F
//	Decimal           I scaled by 10^Scale
//	Char, VarChar     S
//	Bytes             S (raw bytes)
//	Date              I, civil encoding y*10000+m*100+d (e.g. 20140101)
//	Time              I, seconds since midnight
//	Timestamp         I, microseconds since the Unix epoch
//	Interval          I, microseconds (day-time) — months not modeled
//	Period            PStart/PEnd hold the element encodings
type Datum struct {
	K      Kind
	Null   bool
	I      int64
	F      float64
	S      string
	Scale  int8 // decimal scale
	PStart int64
	PEnd   int64
}

// Constructors.

// NewNull returns the SQL NULL of the given kind.
func NewNull(k Kind) Datum { return Datum{K: k, Null: true} }

// NewBool returns a BOOLEAN datum.
func NewBool(b bool) Datum {
	d := Datum{K: KindBool}
	if b {
		d.I = 1
	}
	return d
}

// NewInt returns an INTEGER datum.
func NewInt(v int64) Datum { return Datum{K: KindInt, I: v} }

// NewBigInt returns a BIGINT datum.
func NewBigInt(v int64) Datum { return Datum{K: KindBigInt, I: v} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) Datum { return Datum{K: KindFloat, F: v} }

// NewDecimal returns a DECIMAL datum from a scaled integer, e.g.
// NewDecimal(12345, 2) is 123.45.
func NewDecimal(scaled int64, scale int) Datum {
	return Datum{K: KindDecimal, I: scaled, Scale: int8(scale)}
}

// NewString returns a VARCHAR datum.
func NewString(s string) Datum { return Datum{K: KindVarChar, S: s} }

// NewChar returns a CHAR datum.
func NewChar(s string) Datum { return Datum{K: KindChar, S: s} }

// NewBytes returns a BYTES datum.
func NewBytes(b []byte) Datum { return Datum{K: KindBytes, S: string(b)} }

// NewDate returns a DATE datum from civil components.
func NewDate(y, m, d int) Datum {
	return Datum{K: KindDate, I: int64(y)*10000 + int64(m)*100 + int64(d)}
}

// NewDateEnc returns a DATE datum from the civil encoding y*10000+m*100+d.
func NewDateEnc(enc int64) Datum { return Datum{K: KindDate, I: enc} }

// NewTime returns a TIME datum from seconds since midnight.
func NewTime(secs int64) Datum { return Datum{K: KindTime, I: secs} }

// NewTimestamp returns a TIMESTAMP datum from Unix microseconds.
func NewTimestamp(micros int64) Datum { return Datum{K: KindTimestamp, I: micros} }

// NewInterval returns a day-time INTERVAL datum in microseconds.
func NewInterval(micros int64) Datum { return Datum{K: KindInterval, I: micros} }

// NewPeriod returns a PERIOD datum over element kind elem.
func NewPeriod(elem Kind, start, end int64) Datum {
	return Datum{K: KindPeriod, PStart: start, PEnd: end, I: int64(elem)}
}

// PeriodElem returns the element kind of a PERIOD datum.
func (d Datum) PeriodElem() Kind { return Kind(d.I) }

// Bool returns the boolean value. Callers must check Null first.
func (d Datum) Bool() bool { return !d.Null && d.I != 0 }

// AsFloat converts any numeric datum to float64.
func (d Datum) AsFloat() float64 {
	switch d.K {
	case KindFloat:
		return d.F
	case KindDecimal:
		return float64(d.I) / math.Pow10(int(d.Scale))
	default:
		return float64(d.I)
	}
}

// AsInt converts any numeric datum to int64, truncating toward zero.
func (d Datum) AsInt() int64 {
	switch d.K {
	case KindFloat:
		return int64(d.F)
	case KindDecimal:
		p := pow10(int(d.Scale))
		return d.I / p
	default:
		return d.I
	}
}

// DecimalScaled returns the value as a scaled integer at the requested scale.
func (d Datum) DecimalScaled(scale int) int64 {
	switch d.K {
	case KindDecimal:
		if int(d.Scale) == scale {
			return d.I
		}
		if int(d.Scale) < scale {
			return d.I * pow10(scale-int(d.Scale))
		}
		return d.I / pow10(int(d.Scale)-scale)
	case KindFloat:
		return int64(math.Round(d.F * math.Pow10(scale)))
	default:
		return d.I * pow10(scale)
	}
}

func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

// String renders the datum in SQL literal style (without quotes escaping
// beyond doubling). NULL renders as "NULL".
func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.K {
	case KindBool:
		if d.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt, KindBigInt:
		return strconv.FormatInt(d.I, 10)
	case KindFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindDecimal:
		return formatDecimal(d.I, int(d.Scale))
	case KindChar, KindVarChar:
		return d.S
	case KindBytes:
		return fmt.Sprintf("%X", d.S)
	case KindDate:
		y, m, dd := DecodeDate(d.I)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
	case KindTime:
		return fmt.Sprintf("%02d:%02d:%02d", d.I/3600, (d.I/60)%60, d.I%60)
	case KindTimestamp:
		return FormatTimestamp(d.I)
	case KindInterval:
		return fmt.Sprintf("INTERVAL %d USEC", d.I)
	case KindPeriod:
		s := Datum{K: d.PeriodElem(), I: d.PStart}
		e := Datum{K: d.PeriodElem(), I: d.PEnd}
		return fmt.Sprintf("(%s, %s)", s, e)
	}
	return fmt.Sprintf("<%s>", d.K)
}

func formatDecimal(scaled int64, scale int) string {
	if scale == 0 {
		return strconv.FormatInt(scaled, 10)
	}
	neg := scaled < 0
	if neg {
		scaled = -scaled
	}
	p := pow10(scale)
	whole, frac := scaled/p, scaled%p
	s := fmt.Sprintf("%d.%0*d", whole, scale, frac)
	if neg {
		return "-" + s
	}
	return s
}

// SQLLiteral renders the datum as a SQL literal suitable for embedding in
// generated query text.
func (d Datum) SQLLiteral() string {
	if d.Null {
		return "NULL"
	}
	switch d.K {
	case KindChar, KindVarChar:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	case KindDate:
		return "DATE '" + d.String() + "'"
	case KindTime:
		return "TIME '" + d.String() + "'"
	case KindTimestamp:
		return "TIMESTAMP '" + d.String() + "'"
	case KindBytes:
		return fmt.Sprintf("X'%X'", d.S)
	default:
		return d.String()
	}
}

// AppendSQLLiteral appends the SQLLiteral rendering of d to b and returns
// the extended slice. The translation cache splices literal vectors into
// cached SQL templates with it so a fingerprint-tier hit serializes each
// datum straight into the output buffer, with no intermediate strings. The
// output is byte-identical to SQLLiteral for every kind.
func (d Datum) AppendSQLLiteral(b []byte) []byte {
	if d.Null {
		return append(b, "NULL"...)
	}
	switch d.K {
	case KindBool:
		if d.I != 0 {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	case KindInt, KindBigInt:
		return strconv.AppendInt(b, d.I, 10)
	case KindFloat:
		return strconv.AppendFloat(b, d.F, 'g', -1, 64)
	case KindDecimal:
		return appendDecimal(b, d.I, int(d.Scale))
	case KindChar, KindVarChar:
		b = append(b, '\'')
		s := d.S
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				b = append(b, s...)
				break
			}
			b = append(b, s[:i+1]...)
			b = append(b, '\'')
			s = s[i+1:]
		}
		return append(b, '\'')
	case KindDate:
		y, m, dd := DecodeDate(d.I)
		if y >= 0 {
			b = append(b, "DATE '"...)
			b = appendZeroPad(b, int64(y), 4)
			b = append(b, '-')
			b = appendZeroPad(b, int64(m), 2)
			b = append(b, '-')
			b = appendZeroPad(b, int64(dd), 2)
			return append(b, '\'')
		}
	case KindTime:
		if d.I >= 0 {
			b = append(b, "TIME '"...)
			b = appendZeroPad(b, d.I/3600, 2)
			b = append(b, ':')
			b = appendZeroPad(b, (d.I/60)%60, 2)
			b = append(b, ':')
			b = appendZeroPad(b, d.I%60, 2)
			return append(b, '\'')
		}
	}
	// Rare kinds (TIMESTAMP, BYTES, INTERVAL, PERIOD) and defensive
	// fallbacks go through the string renderer.
	return append(b, d.SQLLiteral()...)
}

// appendZeroPad appends v (non-negative) zero-padded to at least width
// digits, mirroring fmt's %0*d.
func appendZeroPad(b []byte, v int64, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; width-- {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, v, 10)
}

// appendDecimal appends the formatDecimal rendering.
func appendDecimal(b []byte, scaled int64, scale int) []byte {
	if scale == 0 {
		return strconv.AppendInt(b, scaled, 10)
	}
	if scaled < 0 {
		b = append(b, '-')
		scaled = -scaled
	}
	p := pow10(scale)
	b = strconv.AppendInt(b, scaled/p, 10)
	b = append(b, '.')
	return appendZeroPad(b, scaled%p, scale)
}

// Type returns the runtime type of the datum. CHAR/VARCHAR lengths and
// DECIMAL precision are not tracked on values.
func (d Datum) Type() T {
	switch d.K {
	case KindDecimal:
		return Decimal(18, int(d.Scale))
	case KindPeriod:
		return Period(d.PeriodElem())
	default:
		return T{Kind: d.K}
	}
}

// Equal reports deep equality of two datums, with NULL == NULL. It is used
// for test assertions and hashing, not SQL comparison semantics (see Compare).
func (d Datum) Equal(o Datum) bool {
	if d.Null || o.Null {
		return d.Null == o.Null
	}
	c, err := Compare(d, o)
	return err == nil && c == 0
}

// HashKey returns a string key under which the datum groups/dedups with SQL
// equality semantics (numeric cross-kind equality, CHAR blank padding).
func (d Datum) HashKey() string {
	return string(d.AppendHashKey(nil))
}

// AppendHashKey appends the HashKey bytes to b and returns the extended
// slice. Hot engine paths (hash aggregation, hash joins, DISTINCT) use it
// with a reused buffer so key construction does not allocate per row.
func (d Datum) AppendHashKey(b []byte) []byte {
	if d.Null {
		return append(b, '\x00', 'N')
	}
	switch d.K {
	case KindBool:
		return strconv.AppendInt(append(b, 'b'), d.I, 10)
	case KindInt, KindBigInt:
		return strconv.AppendInt(append(b, 'i'), d.I, 10)
	case KindFloat:
		if d.F == math.Trunc(d.F) && math.Abs(d.F) < 1e15 {
			return strconv.AppendInt(append(b, 'i'), int64(d.F), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), d.F, 'b', -1, 64)
	case KindDecimal:
		// Normalize by stripping trailing zero scale.
		v, s := d.I, int(d.Scale)
		for s > 0 && v%10 == 0 {
			v /= 10
			s--
		}
		if s == 0 {
			return strconv.AppendInt(append(b, 'i'), v, 10)
		}
		b = strconv.AppendInt(append(b, 'd'), v, 10)
		return strconv.AppendInt(append(b, '@'), int64(s), 10)
	case KindChar, KindVarChar:
		return append(append(b, 's'), strings.TrimRight(d.S, " ")...)
	case KindDate:
		return strconv.AppendInt(append(b, 'D'), d.I, 10)
	case KindTime, KindTimestamp, KindInterval:
		return strconv.AppendInt(append(b, 't'), d.I, 10)
	case KindBytes:
		return append(append(b, 'y'), d.S...)
	case KindPeriod:
		b = strconv.AppendInt(append(b, 'p'), d.PStart, 10)
		return strconv.AppendInt(append(b, ':'), d.PEnd, 10)
	}
	return append(b, '?')
}

// Compare compares two datums with SQL semantics, returning -1, 0 or +1.
// NULL compares are the caller's responsibility (SQL three-valued logic);
// Compare treats NULL as an error to surface logic bugs early.
func Compare(a, b Datum) (int, error) {
	if a.Null || b.Null {
		return 0, fmt.Errorf("types: Compare called on NULL")
	}
	// Numeric cross-kind comparison.
	if a.Type().IsNumeric() && b.Type().IsNumeric() {
		if a.K == KindFloat || b.K == KindFloat {
			return cmpFloat(a.AsFloat(), b.AsFloat()), nil
		}
		if a.K == KindDecimal || b.K == KindDecimal {
			scale := maxInt(int(a.Scale), int(b.Scale))
			return cmpInt(a.DecimalScaled(scale), b.DecimalScaled(scale)), nil
		}
		return cmpInt(a.I, b.I), nil
	}
	if a.Type().IsString() && b.Type().IsString() {
		// CHAR semantics: ignore trailing blanks.
		return strings.Compare(strings.TrimRight(a.S, " "), strings.TrimRight(b.S, " ")), nil
	}
	if a.K == b.K {
		switch a.K {
		case KindBool, KindDate, KindTime, KindTimestamp, KindInterval:
			return cmpInt(a.I, b.I), nil
		case KindBytes:
			return strings.Compare(a.S, b.S), nil
		case KindPeriod:
			if c := cmpInt(a.PStart, b.PStart); c != 0 {
				return c, nil
			}
			return cmpInt(a.PEnd, b.PEnd), nil
		}
	}
	return 0, fmt.Errorf("types: cannot compare %s with %s", a.K, b.K)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
