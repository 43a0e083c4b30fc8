//go:build !unix

package snapshot

import "os"

// mmapAvailable is false on platforms without a usable mmap: mmapFile reads
// the file onto the heap instead, and the decoder copies the sections out of
// those bytes rather than viewing them.
const mmapAvailable = false

func mmapFile(path string) ([]byte, error) { return os.ReadFile(path) }

func munmapFile(data []byte) error { return nil }
