//go:build unix

package snapshot

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mmapAvailable tells the decoder that mmapFile's bytes are a mapping it may
// view in place; core.DecodeSnapshot checks the remaining (word size, byte
// order, struct layout) conditions.
const mmapAvailable = true

// mmapFile maps the whole file read-only and shared, so every process
// mapping the same snapshot shares one copy of the page cache. The file
// descriptor is closed before returning; the mapping survives it.
func mmapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("empty file")
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("file size %d exceeds address space", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return data, nil
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
