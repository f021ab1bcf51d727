// Fuzzing for the constraint-evaluation path (Constraint.matches,
// compareNumeric, asFloat). Properties and comparands are arbitrary
// wire values, so matching must tolerate every kind combination: the
// invariants are that evaluation never panics, that every error is an
// ErrBadConstraint (imports surface it verbatim to clients), that the
// kind-blind operators (==, !=, exists) never error, and that numeric
// comparison is antisymmetric.
package trader

import (
	"errors"
	"testing"

	"odp/internal/wire"
)

// fuzzValue decodes one wire value from the fuzzer's primitive inputs.
// kind selects the dynamic type; the unused payloads are ignored.
func fuzzValue(kind uint8, i int64, f float64, s string) wire.Value {
	switch kind % 6 {
	case 0:
		return i
	case 1:
		return uint64(i)
	case 2:
		return f
	case 3:
		return s
	case 4:
		return i%2 == 0
	default:
		return wire.List{i, s}
	}
}

func FuzzConstraintMatches(f *testing.F) {
	// Seeds: same-kind and mixed-kind comparisons for every operator,
	// the ErrBadConstraint paths (non-numeric ordering, bogus operator),
	// and exists on present/absent keys.
	f.Add("dpi", "==", uint8(0), int64(600), 0.0, "", uint8(0), int64(600), 0.0, "", true)
	f.Add("dpi", "!=", uint8(2), int64(0), 2.5, "", uint8(0), int64(2), 0.0, "", true)     // float vs int
	f.Add("dpi", ">=", uint8(0), int64(600), 0.0, "", uint8(1), int64(300), 0.0, "", true) // int vs uint
	f.Add("dpi", "<=", uint8(2), int64(0), 1.5, "", uint8(2), int64(0), 2.5, "", true)     // float vs float
	f.Add("dpi", ">=", uint8(3), int64(0), 0.0, "lo", uint8(0), int64(1), 0.0, "", true)   // string vs int: bad
	f.Add("dpi", "<=", uint8(0), int64(1), 0.0, "", uint8(4), int64(0), 0.0, "", true)     // int vs bool: bad
	f.Add("dpi", ">=", uint8(5), int64(1), 0.0, "x", uint8(5), int64(2), 0.0, "y", true)   // list vs list: bad
	f.Add("dpi", "~=", uint8(0), int64(1), 0.0, "", uint8(0), int64(1), 0.0, "", true)     // bogus operator
	f.Add("color", "exists", uint8(0), int64(0), 0.0, "", uint8(0), int64(0), 0.0, "", false)
	f.Add("color", "exists", uint8(3), int64(0), 0.0, "on", uint8(3), int64(0), 0.0, "on", true)
	f.Add("", "==", uint8(3), int64(0), 0.0, "", uint8(3), int64(0), 0.0, "", true) // empty key/strings

	f.Fuzz(func(t *testing.T, key, op string,
		pk uint8, pi int64, pf float64, ps string,
		ck uint8, ci int64, cf float64, cs string,
		present bool) {

		props := map[string]wire.Value{}
		if present {
			props[key] = fuzzValue(pk, pi, pf, ps)
		}
		c := Constraint{Key: key, Op: ConstraintOp(op), Value: fuzzValue(ck, ci, cf, cs)}

		ok, err := c.matches(props)
		if err != nil {
			if !errors.Is(err, ErrBadConstraint) {
				t.Fatalf("matches returned a non-ErrBadConstraint error: %v", err)
			}
			if ok {
				t.Fatalf("matches returned true alongside error %v", err)
			}
			switch c.Op {
			case OpEq, OpNe, OpExists:
				t.Fatalf("kind-blind operator %q errored: %v", c.Op, err)
			}
			return
		}

		switch c.Op {
		case OpExists:
			if ok != present {
				t.Fatalf("exists = %v with present = %v", ok, present)
			}
		case OpEq, OpNe:
			flip := OpNe
			if c.Op == OpNe {
				flip = OpEq
			}
			other, oerr := Constraint{Key: key, Op: flip, Value: c.Value}.matches(props)
			if oerr != nil {
				t.Fatalf("%q errored where %q did not: %v", flip, c.Op, oerr)
			}
			if present && ok == other {
				t.Fatalf("== and != agree (%v) on a present key", ok)
			}
		case OpGe, OpLe:
			if !present {
				if ok {
					t.Fatalf("%q matched an absent key", c.Op)
				}
				return
			}
			// Ordering succeeded on a present key, so both sides are
			// numeric; comparison must be antisymmetric.
			v := props[key]
			cmp, cerr := compareNumeric(v, c.Value)
			rcmp, rerr := compareNumeric(c.Value, v)
			if cerr != nil || rerr != nil {
				t.Fatalf("compareNumeric errored after matches succeeded: %v %v", cerr, rerr)
			}
			if cmp != -rcmp {
				t.Fatalf("compareNumeric not antisymmetric: %d vs %d", cmp, rcmp)
			}
			if c.Op == OpGe && ok != (cmp >= 0) {
				t.Fatalf(">= returned %v with cmp %d", ok, cmp)
			}
			if c.Op == OpLe && ok != (cmp <= 0) {
				t.Fatalf("<= returned %v with cmp %d", ok, cmp)
			}
		default:
			// An unknown operator only reaches its error check when the
			// key is present; an absent key short-circuits to no-match.
			if present {
				t.Fatalf("unknown operator %q evaluated without error", c.Op)
			}
		}
	})
}

func FuzzAsFloat(f *testing.F) {
	f.Add(uint8(0), int64(-1), 0.0, "")
	f.Add(uint8(1), int64(1<<62), 0.0, "")
	f.Add(uint8(2), int64(0), 2.5, "")
	f.Add(uint8(3), int64(0), 0.0, "600")
	f.Add(uint8(4), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		v := fuzzValue(kind, i, fl, s)
		_, ok := asFloat(v)
		switch v.(type) {
		case int64, uint64, float64:
			if !ok {
				t.Fatalf("asFloat rejected numeric %T", v)
			}
		default:
			if ok {
				t.Fatalf("asFloat accepted non-numeric %T", v)
			}
		}
	})
}
