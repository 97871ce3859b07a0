//go:build heappoison

package heap

// Built with -tags heappoison (`make poison`, in `make verify`), every fresh
// heap holds staleWord wherever it has not written; see backing.
const poisonBacking = true
