package obs

import (
	"reflect"
	"strings"
)

// RecordFields lists the leaves of the record type record points at: Go
// path, Go type, series ("-" for none, "" when untagged) and kind (for "-",
// the reason).
func RecordFields(record any) [][4]string {
	t := reflect.TypeOf(record).Elem()
	var out [][4]string
	for _, f := range planOf(t) {
		var path []string
		for i := range f.index {
			path = append(path, t.FieldByIndex(f.index[:i+1]).Name)
		}
		out = append(out, [4]string{strings.Join(path, "."), t.FieldByIndex(f.index).Type.String(), f.name, f.kind})
	}
	return out
}

// Curated lists every series with a curated HELP line.
func Curated() []string { return sortedKeys(metricHelp) }
