// Streaming edge mutations: POST /v1/graphs/{graph}/edges applies a batch of
// edge insertions/deletions to the serving index incrementally (recomputing
// only the hubs the batch can perturb), persists the successor next to the
// graph's snapshot — as a delta file against the on-disk base, or as a full
// rewrite once the accumulated delta grows past -rewriteratio of the base —
// and hot-swaps every shard onto it without dropping in-flight requests.
// Publishing keeps disk ahead of memory: a batch whose publish fails is not
// swapped in, so a restart never silently loses an acknowledged mutation.
package main

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"

	"prsim"
)

// deltaSuffix names the published delta next to its base snapshot:
// <snapshot>.delta. openSnapshotAuto layers it back over the base at open.
const deltaSuffix = ".delta"

// mutator is one graph's mutation pipeline state. mu serializes the
// apply→publish→swap sequence with reloads of the same graph (queries never
// take it); statsMu guards the counters below it so /stats never blocks on a
// long apply.
type mutator struct {
	mu       sync.Mutex
	path     string // on-disk snapshot ("" = in-memory only, nothing to publish)
	baseGens prsim.SnapshotGens
	baseOK   bool // base file carries v4 generation stamps (delta-capable)

	statsMu          sync.Mutex
	batches          int64
	updates          int64
	hubsRecomputed   int64
	deltasPublished  int64
	fullRewrites     int64
	lastFractionHubs float64
	lastApplySeconds float64
	lastDeltaBytes   uint64
}

// refreshBase re-reads the on-disk base snapshot's generation stamps, the
// gens future deltas are written against. Callers hold m.mu (or own m
// exclusively). A v3 or unreadable base simply disables delta publishing
// until the first full rewrite replaces it.
func (m *mutator) refreshBase() {
	m.baseOK = false
	if m.path == "" {
		return
	}
	gens, ok, err := prsim.SnapshotFileGens(m.path)
	if err != nil || !ok {
		return
	}
	m.baseGens, m.baseOK = gens, true
}

func (m *mutator) statsJSON() map[string]any {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return map[string]any{
		"batches":            m.batches,
		"updates":            m.updates,
		"hubs_recomputed":    m.hubsRecomputed,
		"deltas_published":   m.deltasPublished,
		"full_rewrites":      m.fullRewrites,
		"last_fraction_hubs": m.lastFractionHubs,
		"last_apply_seconds": m.lastApplySeconds,
		"last_delta_bytes":   m.lastDeltaBytes,
	}
}

// mutatorFor returns the named graph's mutator, creating it on first use. The
// default graph publishes to the boot snapshot; one built at startup has no
// snapshot, so its updates stay in memory.
func (s *server) mutatorFor(name string) *mutator {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if m, ok := s.mutators[name]; ok {
		return m
	}
	m := &mutator{}
	if name == prsim.DefaultGraph {
		m.path = s.cfg.loadIndex
	}
	m.refreshBase()
	s.mutators[name] = m
	return m
}

// mountMutator (re)binds a runtime-mounted graph's mutator to its snapshot
// path; dropMutator forgets an unmounted graph's pipeline state.
func (s *server) mountMutator(name, path string) {
	m := &mutator{path: path}
	m.refreshBase()
	s.mutMu.Lock()
	s.mutators[name] = m
	s.mutMu.Unlock()
}

func (s *server) dropMutator(name string) {
	s.mutMu.Lock()
	delete(s.mutators, name)
	s.mutMu.Unlock()
}

// rewriteRatio returns the delta-size threshold (as a fraction of the base
// snapshot size) past which a publish rewrites the full snapshot instead of
// shipping a delta. Zero (tests constructing config directly) means the flag
// default.
func (s *server) rewriteRatio() float64 {
	if s.cfg.rewriteRatio <= 0 {
		return 0.5
	}
	return s.cfg.rewriteRatio
}

// openSnapshotAuto opens a self-contained snapshot, layering the published
// delta over it when one exists next to the file. A delta that no longer
// applies to the base (e.g. left behind by an interrupted full rewrite) is
// skipped with a log line — the base alone is always a consistent, if older,
// serving state.
func openSnapshotAuto(path string) (*prsim.Index, error) {
	deltaPath := path + deltaSuffix
	if _, err := os.Stat(deltaPath); err == nil {
		idx, err := prsim.OpenSnapshotDelta(path, deltaPath)
		if err == nil {
			return idx, nil
		}
		log.Printf("prsimserve: delta %s does not apply to %s (%v); serving the base snapshot", deltaPath, path, err)
	}
	return prsim.OpenSnapshot(path, nil)
}

// writeFileAtomic writes through a temp file and renames it over path, so
// readers (and a crash) only ever observe the old or the new complete file.
func writeFileAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// publish persists an updated index next to the graph's snapshot and reports
// how: "delta" (shipped only the sections the update lineage rewrote since
// the base), "rewrite" (full snapshot replaced, becoming the next delta
// base), or "memory" (no on-disk backing to publish to). Caller holds m.mu.
func (s *server) publish(m *mutator, idx *prsim.Index) (string, uint64, error) {
	if m.path == "" {
		return "memory", 0, nil
	}
	if m.baseOK {
		size, err := idx.DeltaSize(m.baseGens)
		if err == nil {
			if st, serr := os.Stat(m.path); serr == nil && float64(size) <= s.rewriteRatio()*float64(st.Size()) {
				err := writeFileAtomic(m.path+deltaSuffix, func(tmp string) error {
					return idx.WriteDeltaFile(tmp, m.baseGens)
				})
				if err != nil {
					return "", 0, err
				}
				m.statsMu.Lock()
				m.deltasPublished++
				m.lastDeltaBytes = size
				m.statsMu.Unlock()
				return "delta", size, nil
			}
		}
		// DeltaSize errors (lineage drift after an external republish) fall
		// through to a full rewrite, which re-bases the pipeline.
	}
	if err := writeFileAtomic(m.path, func(tmp string) error { return idx.SaveFile(tmp) }); err != nil {
		return "", 0, err
	}
	// The delta (if any) described the replaced base; the new file carries
	// the whole state and becomes the base of future deltas.
	os.Remove(m.path + deltaSuffix)
	m.baseGens, m.baseOK = idx.Gens(), true
	m.statsMu.Lock()
	m.fullRewrites++
	m.lastDeltaBytes = 0
	m.statsMu.Unlock()
	if m.path == s.cfg.loadIndex {
		// The watcher polls this file; record the rewrite's identity so it
		// does not immediately re-open the state it is already serving.
		s.reloadMu.Lock()
		s.watchedMod, s.watchedSize = statWatched(m.path)
		s.reloadMu.Unlock()
	}
	return "rewrite", 0, nil
}

// edgeJSON is one mutation of the POST /v1/graphs/{graph}/edges body.
type edgeJSON struct {
	From   int  `json:"from"`
	To     int  `json:"to"`
	Delete bool `json:"delete,omitempty"`
}

// edgesBodyJSON is the mutation batch body.
type edgesBodyJSON struct {
	Updates []edgeJSON `json:"updates"`
}

func (s *server) handleEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("graph")
	var body edgesBodyJSON
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, fmt.Sprintf("invalid JSON body: %v", err))
		return
	}
	if len(body.Updates) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "at least one update is required (JSON updates array)")
		return
	}
	sv, err := s.reg.Get(name)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if sv.Remote() {
		writeError(w, http.StatusConflict, codeConflict,
			fmt.Sprintf("graph %q is remote: apply edge updates on its shard hosts", name))
		return
	}
	ups := make([]prsim.EdgeUpdate, len(body.Updates))
	for i, e := range body.Updates {
		ups[i] = prsim.EdgeUpdate{From: e.From, To: e.To, Delete: e.Delete}
	}

	m := s.mutatorFor(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := sv.Current()
	nidx, st, err := cur.ApplyUpdatesOpts(ups, prsim.UpdateOptions{DriftBudget: s.cfg.driftBudget})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	published, deltaBytes, err := s.publish(m, nidx)
	if err != nil {
		// Disk leads memory: an unpublishable batch is not swapped in, so an
		// acknowledged mutation can never be lost by a restart.
		writeError(w, http.StatusInternalServerError, codeInternal,
			fmt.Sprintf("update not applied: publishing failed: %v", err))
		return
	}
	if err := sv.Update(nidx, st); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, fmt.Sprintf("swap failed: %v", err))
		return
	}
	m.statsMu.Lock()
	m.batches++
	m.updates += int64(st.Updates)
	m.hubsRecomputed += int64(st.HubsRecomputed)
	m.lastFractionHubs = st.FractionHubs
	m.lastApplySeconds = st.TotalSeconds
	m.statsMu.Unlock()
	log.Printf("prsimserve: graph %q applied %d edge update(s): %d/%d hubs recomputed (%.1f%%) in %.3fs, published as %s",
		name, st.Updates, st.HubsRecomputed, st.HubsTotal, 100*st.FractionHubs, st.TotalSeconds, published)
	writeJSON(w, map[string]any{
		"status":             "applied",
		"graph":              name,
		"updates":            st.Updates,
		"generation":         nidx.Generation(),
		"hubs_total":         st.HubsTotal,
		"hubs_recomputed":    st.HubsRecomputed,
		"hubs_skipped_drift": st.HubsSkippedDrift,
		"fraction_hubs":      st.FractionHubs,
		"entries_rewritten":  st.EntriesRewritten,
		"entries_carried":    st.EntriesCarried,
		"apply_seconds":      st.TotalSeconds,
		"published":          published,
		"delta_bytes":        deltaBytes,
	})
}

// admin wraps an admin-plane handler with bearer-token auth when -admintoken
// is set. Without the flag the admin plane stays open (the pre-auth
// behavior); the check is constant-time so the token cannot be probed
// byte-by-byte.
func (s *server) admin(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.adminToken == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(token), []byte(s.cfg.adminToken)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="prsimserve admin"`)
			writeError(w, http.StatusUnauthorized, codeUnauthorized,
				"admin endpoints require the -admintoken bearer token")
			return
		}
		h(w, r)
	}
}
