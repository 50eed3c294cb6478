package fingerprint

import (
	"strconv"
	"strings"

	"hyperq/internal/types"
)

// Marker returns the placeholder the serializer emits, in lift mode, for the
// literal with the given 0-based vector ordinal. NUL bytes cannot occur in
// serialized SQL, so the markers never collide with statement text.
func Marker(idx int) string { return string(AppendMarker(nil, idx)) }

// AppendMarker appends Marker(idx) to b.
func AppendMarker(b []byte, idx int) []byte {
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(idx), 10)
	return append(b, 0)
}

// Template is a serialized statement with literal slots: the statement text
// split at markers, ready to be re-instantiated with a new literal vector.
type Template struct {
	segs  []string // len(slots)+1 text segments
	slots []int    // literal ordinal spliced between segs[i] and segs[i+1]
	fixed int      // total byte length of segs
}

// ParseTemplate splits marked SQL text into a template over n literals.
// complete reports whether every ordinal 0..n-1 appears at least once; when
// it does not, translation consumed a literal's value (constant folding,
// ordinal binding, ...) and the cache entry must degrade to exact matching.
func ParseTemplate(marked string, n int) (t Template, complete bool) {
	seen := make([]bool, n)
	rest := marked
	for {
		i := strings.IndexByte(rest, 0)
		if i < 0 {
			break
		}
		j := strings.IndexByte(rest[i+1:], 0)
		if j < 0 {
			// Unterminated marker: treat the NUL as text (cannot happen with
			// serializer-produced input).
			break
		}
		ord, err := strconv.Atoi(rest[i+1 : i+1+j])
		if err != nil || ord < 0 || ord >= n {
			return Template{}, false
		}
		t.segs = append(t.segs, rest[:i])
		t.slots = append(t.slots, ord)
		t.fixed += i
		seen[ord] = true
		rest = rest[i+1+j+1:]
	}
	t.segs = append(t.segs, rest)
	t.fixed += len(rest)
	complete = true
	for _, s := range seen {
		complete = complete && s
	}
	return t, complete
}

// Valid reports whether the template was parsed successfully (Instantiate
// must not be called on an invalid template).
func (t *Template) Valid() bool { return len(t.segs) > 0 }

// Instantiate splices serialized literals into the template slots in a
// single pass: datums append their SQL form directly into the output buffer
// (no per-literal string, no intermediate marked text).
func (t *Template) Instantiate(lits []types.Datum) string {
	if len(t.slots) == 0 {
		return t.segs[0]
	}
	b := make([]byte, 0, t.fixed+16*len(t.slots))
	for i, slot := range t.slots {
		b = append(b, t.segs[i]...)
		b = lits[slot].AppendSQLLiteral(b)
	}
	b = append(b, t.segs[len(t.segs)-1]...)
	return string(b)
}

// Size approximates the retained byte size of the template for cache
// accounting.
func (t *Template) Size() int {
	return t.fixed + 24*len(t.slots) + 48
}

// LitSig returns a comparable signature of a literal vector's values, used by
// exact-match cache entries where the translated text depends on the values.
func LitSig(lits []types.Datum) string {
	if len(lits) == 0 {
		return ""
	}
	var b []byte
	for _, d := range lits {
		b = d.AppendSQLLiteral(b)
		b = append(b, 0)
	}
	return string(b)
}

// LitSigEqual reports whether LitSig(lits) would equal sig, without building
// the signature: each literal renders into a stack buffer and compares
// against its segment of sig in place.
func LitSigEqual(sig string, lits []types.Datum) bool {
	if len(lits) == 0 {
		return sig == ""
	}
	var buf [48]byte
	rest := sig
	for _, d := range lits {
		b := d.AppendSQLLiteral(buf[:0])
		// string([]byte) in a comparison does not allocate.
		if len(rest) <= len(b) || rest[:len(b)] != string(b) || rest[len(b)] != 0 {
			return false
		}
		rest = rest[len(b)+1:]
	}
	return len(rest) == 0
}
