package prsim

import (
	"context"
	"os"
	"testing"
)

// writeFile is a tiny helper for tests that need an edge list on disk.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// query answers one default single-source request from u against idx.
func query(idx *Index, u int) (*Result, error) {
	resp, err := idx.Do(context.Background(), Request{Source: u})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// mountIndex serves idx as the default graph of a fresh Registry with one
// shard whose engine is configured by eo; the registry closes when tb ends
// (the index stays open: MountIndex never takes ownership).
func mountIndex(tb testing.TB, idx *Index, eo EngineOptions) *Served {
	tb.Helper()
	reg := NewRegistry()
	tb.Cleanup(func() { reg.Close() })
	s, err := reg.MountIndex(DefaultGraph, idx, GraphConfig{Engine: eo})
	if err != nil {
		tb.Fatalf("MountIndex: %v", err)
	}
	return s
}
