package upt

import (
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// FieldMove is one field a move transformer carries: the old version's field
// From lands, unchanged, in the new version's field To.
type FieldMove struct{ From, To string }

// ObjectMoves decides whether class's object transformer is a move
// transformer: a body that is exactly
//
//	k × ( load 0, load 1, getfield <renamed old>.f D, putfield <class>.g D )
//	return
//
// where f is an instance field of the flattened old version and g one of the
// new version's layout, both of descriptor D. Such a body reads nothing but
// its own old object and writes nothing but its own new one, so the collector
// can perform it while it copies the object (paper §4.1: "a naively compiled
// field-by-field copy is much slower than the collector's highly-optimized
// copying loop"). Every UPT-generated default qualifies, and so does a
// hand-written pure rename; one instruction more and the body runs as
// bytecode. The answer is read off the body in Transformers at the moment of
// the call, so no edit of that class — through OverrideTransformer or
// directly — can make it stale. The moves come back in body order (a field
// written twice keeps the last value, as the bytecode would).
func (s *Spec) ObjectMoves(class string) ([]FieldMove, bool) {
	renamed := s.RenamedName(class)
	flat, ndef := s.OldFlatDefs[renamed], s.New.Classes[class]
	m := s.transformer("jvolveObject", "(L"+class+";L"+renamed+";)V")
	if m == nil || flat == nil || ndef == nil {
		return nil, false
	}
	layout := appendLayout(nil, s.New, ndef)
	return pureCopy(m.Code, 2, bytecode.GETFIELD, bytecode.PUTFIELD, renamed, class,
		func(mv FieldMove, d classfile.Desc) bool {
			of := flat.Field(mv.From)
			if of == nil || of.Static || of.Desc != d {
				return false
			}
			var nf *classfile.Field
			for i := range layout {
				if layout[i].Name == mv.To {
					if nf != nil {
						return false // shadowed: which g is meant is the linker's business
					}
					nf = &layout[i]
				}
			}
			return nf != nil && nf.Desc == d
		})
}

// ClassMoves is ObjectMoves for the class transformer jvolveClass(LC;)V:
// exactly k × ( getstatic <renamed old>.f D, putstatic <class>.g D ), return,
// with f a static of the old version and g a static the new version declares.
func (s *Spec) ClassMoves(class string) ([]FieldMove, bool) {
	renamed := s.RenamedName(class)
	flat, ndef := s.OldFlatDefs[renamed], s.New.Classes[class]
	m := s.transformer("jvolveClass", "(L"+class+";)V")
	if m == nil || flat == nil || ndef == nil {
		return nil, false
	}
	return pureCopy(m.Code, 0, bytecode.GETSTATIC, bytecode.PUTSTATIC, renamed, class,
		func(mv FieldMove, d classfile.Desc) bool {
			of, nf := flat.Field(mv.From), ndef.Field(mv.To)
			return of != nil && of.Static && of.Desc == d &&
				nf != nil && nf.Static && nf.Desc == d
		})
}

// transformer looks a static, non-native method of the transformer class up.
func (s *Spec) transformer(name, sig string) *classfile.Method {
	if s.Transformers == nil {
		return nil
	}
	m := s.Transformers.Method(name, classfile.Sig(sig))
	if m == nil || !m.Static || m.Native {
		return nil
	}
	return m
}

// pureCopy matches code against k groups of (load 0 … load loads-1,
// get from.f D, put to.g D) followed by a lone return, and asks ok about each
// field pair.
func pureCopy(code []bytecode.Ins, loads int, get, put bytecode.Op, from, to string,
	ok func(FieldMove, classfile.Desc) bool) ([]FieldMove, bool) {
	group := loads + 2
	if len(code)%group != 1 || code[len(code)-1].Op != bytecode.RETURN {
		return nil, false
	}
	moves := make([]FieldMove, 0, len(code)/group)
	for g := 0; g+group < len(code); g += group {
		for i := 0; i < loads; i++ {
			if ld := code[g+i]; ld.Op != bytecode.LOAD || ld.A != int64(i) {
				return nil, false
			}
		}
		src, dst := code[g+loads], code[g+loads+1]
		if src.Op != get || dst.Op != put || src.Desc != dst.Desc ||
			src.SymClass() != from || dst.SymClass() != to {
			return nil, false
		}
		mv := FieldMove{From: src.SymMember(), To: dst.SymMember()}
		if mv.From == "" || mv.To == "" || !ok(mv, classfile.Desc(src.Desc)) {
			return nil, false
		}
		moves = append(moves, mv)
	}
	return moves, true
}
