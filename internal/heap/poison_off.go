//go:build !heappoison

package heap

// poisonBacking: see poison.go.
const poisonBacking = false
