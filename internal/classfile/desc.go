// Package classfile defines the class-file model of the govolve toy managed
// language: type descriptors, fields, methods, and classes, plus a
// programmatic builder. Class files are the unit of dynamic loading and the
// unit the Update Preparation Tool (internal/upt) diffs between versions.
package classfile

import (
	"fmt"
	"strings"
)

// Kind classifies a type descriptor.
type Kind uint8

const (
	KInvalid Kind = iota
	KVoid         // V — method returns only
	KInt          // I — 64-bit integer
	KBool         // Z
	KChar         // C
	KRef          // LName;
	KArray        // [T
)

// Desc is a JVM-style type descriptor:
//
//	I        int (64-bit)
//	Z        boolean
//	C        character
//	V        void (return types only)
//	LName;   reference to class Name
//	[T       array of T
type Desc string

// Kind returns the descriptor's kind, or KInvalid for malformed input.
func (d Desc) Kind() Kind {
	if len(d) == 0 {
		return KInvalid
	}
	switch d[0] {
	case 'I':
		if len(d) == 1 {
			return KInt
		}
	case 'Z':
		if len(d) == 1 {
			return KBool
		}
	case 'C':
		if len(d) == 1 {
			return KChar
		}
	case 'V':
		if len(d) == 1 {
			return KVoid
		}
	case 'L':
		if len(d) > 2 && d[len(d)-1] == ';' {
			return KRef
		}
	case '[':
		if Desc(d[1:]).Kind() != KInvalid && Desc(d[1:]).Kind() != KVoid {
			return KArray
		}
	}
	return KInvalid
}

// IsRef reports whether values of this type are heap references.
func (d Desc) IsRef() bool {
	k := d.Kind()
	return k == KRef || k == KArray
}

// IsNumeric reports whether the type is stored as a raw integer word.
func (d Desc) IsNumeric() bool {
	k := d.Kind()
	return k == KInt || k == KBool || k == KChar
}

// Valid reports whether the descriptor is well-formed (void excluded).
func (d Desc) Valid() bool {
	k := d.Kind()
	return k != KInvalid && k != KVoid
}

// ClassName returns the referenced class name for L-descriptors, "" otherwise.
func (d Desc) ClassName() string {
	if d.Kind() == KRef {
		return string(d[1 : len(d)-1])
	}
	return ""
}

// Elem returns the element descriptor of an array type, "" otherwise.
func (d Desc) Elem() Desc {
	if d.Kind() == KArray {
		return Desc(d[1:])
	}
	return ""
}

// RefOf builds the descriptor for a reference to the named class.
func RefOf(name string) Desc { return Desc("L" + name + ";") }

// ArrayOf builds the descriptor for an array of the given element type.
func ArrayOf(elem Desc) Desc { return "[" + elem }

// Sig is a method signature "(args)ret", e.g. "(ILString;)V".
type Sig string

// ParseSig splits a signature into argument descriptors and return
// descriptor. The return descriptor may be V.
func ParseSig(s Sig) (args []Desc, ret Desc, err error) {
	return s.AppendArgs(nil)
}

// AppendArgs is ParseSig into the caller's storage: the argument descriptors
// are appended to dst. Every descriptor is a substring of s, so a caller that
// hands back the slice it got (cut to length 0) parses without allocating.
func (s Sig) AppendArgs(dst []Desc) (args []Desc, ret Desc, err error) {
	if _, ret, err = s.scan(&dst); err != nil {
		return nil, "", err
	}
	return dst, ret, nil
}

// scan walks a signature once, counting its argument descriptors (appending
// them to *args when non-nil) and slicing out the return descriptor. Every
// descriptor is a substring of s, so a scan with nil args allocates nothing —
// the form NumArgs, Ret and Valid use.
func (s Sig) scan(args *[]Desc) (nargs int, ret Desc, err error) {
	str := string(s)
	if len(str) < 3 || str[0] != '(' {
		return 0, "", fmt.Errorf("classfile: malformed signature %q", s)
	}
	close := strings.IndexByte(str, ')')
	if close < 0 {
		return 0, "", fmt.Errorf("classfile: malformed signature %q", s)
	}
	rest := str[1:close]
	for len(rest) > 0 {
		d, n, perr := nextDesc(rest)
		if perr != nil {
			return 0, "", fmt.Errorf("classfile: signature %q: %v", s, perr)
		}
		if args != nil {
			*args = append(*args, d)
		}
		nargs++
		rest = rest[n:]
	}
	ret = Desc(str[close+1:])
	if k := ret.Kind(); k == KInvalid {
		return 0, "", fmt.Errorf("classfile: signature %q: bad return type", s)
	}
	return nargs, ret, nil
}

// nextDesc scans one descriptor off the front of s, returning it and the
// number of bytes consumed.
func nextDesc(s string) (Desc, int, error) {
	if len(s) == 0 {
		return "", 0, fmt.Errorf("empty descriptor")
	}
	switch s[0] {
	case 'I', 'Z', 'C':
		return Desc(s[:1]), 1, nil
	case 'L':
		end := strings.IndexByte(s, ';')
		if end < 1 {
			return "", 0, fmt.Errorf("unterminated class descriptor in %q", s)
		}
		return Desc(s[:end+1]), end + 1, nil
	case '[':
		_, n, err := nextDesc(s[1:])
		if err != nil {
			return "", 0, err
		}
		return Desc(s[:n+1]), n + 1, nil
	default:
		return "", 0, fmt.Errorf("bad descriptor start %q", s[:1])
	}
}

// NumArgs returns the number of declared arguments (receiver excluded).
func (s Sig) NumArgs() int {
	n, _, err := s.scan(nil)
	if err != nil {
		return -1
	}
	return n
}

// Ret returns the return descriptor, or "" for a malformed signature.
func (s Sig) Ret() Desc {
	_, ret, err := s.scan(nil)
	if err != nil {
		return ""
	}
	return ret
}

// Valid reports whether the signature parses.
func (s Sig) Valid() bool {
	_, _, err := s.scan(nil)
	return err == nil
}
