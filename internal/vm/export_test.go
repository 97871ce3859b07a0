package vm

// FrameChunk is frameChunk for the external tests (frame_test.go).
const FrameChunk = frameChunk
