package upt

import (
	"govolve/internal/classfile"
)

// generateTransformers builds the default JvolveTransformers class: for
// every class update C, a class transformer jvolveClass(LC;)V copying
// unchanged static fields from the renamed old class, and an object
// transformer jvolveObject(LC;Lv<tag>_C;)V copying unchanged instance
// fields. New and type-changed fields keep their default (zero/null)
// values, exactly like the paper's UPT-generated defaults; programmers
// customize via Spec.OverrideTransformer. Java-style overloading
// distinguishes the transformers of different classes — our method
// identities include the full signature, so overloading just works.
func generateTransformers(s *Spec) (*classfile.Class, error) {
	b := classfile.NewClass(TransformersClassName, "Object")
	for _, name := range s.ClassUpdates {
		odef := s.Old.Classes[name]
		ndef := s.New.Classes[name]
		if odef == nil || ndef == nil {
			continue
		}
		renamed := s.RenamedName(name)
		flat := s.OldFlatDefs[renamed]

		// Class transformer: copy statics with unchanged name+type.
		cb := b.StaticMethod("jvolveClass", classfile.Sig("(L"+name+";)V"))
		for _, nf := range ndef.StaticFields() {
			of := flat.Field(nf.Name)
			if of == nil || !of.Static || of.Desc != nf.Desc {
				continue
			}
			cb.GetStatic(renamed, nf.Name, nf.Desc)
			cb.PutStatic(name, nf.Name, nf.Desc)
		}
		b = cb.Ret().Done()

		// Object transformer: copy the full flattened instance field set
		// (inherited fields included — each object transforms exactly
		// once, as a whole).
		ob := b.StaticMethod("jvolveObject",
			classfile.Sig("(L"+name+";L"+renamed+";)V"))
		newLayout := instanceLayout(s.New, ndef)
		for _, nf := range newLayout {
			of := flat.Field(nf.Name)
			if of == nil || of.Static || of.Desc != nf.Desc {
				continue
			}
			ob.Load(0)
			ob.Load(1)
			ob.GetField(renamed, nf.Name, nf.Desc)
			ob.PutField(name, nf.Name, nf.Desc)
		}
		b = ob.Ret().Done()
	}
	return b.Build()
}

// instanceLayout returns a class's full instance field list, inherited
// fields first, matching runtime layout order.
func instanceLayout(p *classfile.Program, def *classfile.Class) []classfile.Field {
	var chain []*classfile.Class
	for c := def; c != nil; {
		chain = append([]*classfile.Class{c}, chain...)
		if c.Super == "" {
			break
		}
		c = p.Classes[c.Super]
	}
	var out []classfile.Field
	for _, c := range chain {
		out = append(out, c.InstanceFields()...)
	}
	return out
}
