package heap

// StaleWord and Poisoned serve the external tests (stale_ext_test.go).
var StaleWord = staleWord

// Poisoned is New with every word but null holding staleWord — what a fresh
// heap holds under -tags heappoison — whatever the build.
func Poisoned(semiWords int) *Heap {
	h := New(semiWords)
	poison(h.words)
	h.words[0] = 0
	return h
}
