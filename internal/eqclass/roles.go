package eqclass

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"slices"

	"objectrunner/internal/parallel"
)

// This file holds the data-parallel core of the staged analysis: role
// re-keying and per-role occurrence aggregation fan out across page
// chunks via parallel.MapWorkersCtx, with deterministic merges that keep
// role numbering — and therefore every downstream artifact — byte-
// identical at any worker count.

// initLayout computes the flat occurrence layout: pageOff[pi] is the
// global index of page pi's first token, pageOff[len(Pages)] the total.
// Flat indices let the parallel passes address per-occurrence state
// (key ids, annotation labels) in shared pre-sized buffers with no
// cross-worker synchronization: chunks are page-aligned, so workers
// write disjoint index ranges.
func (a *Analysis) initLayout() {
	off := make([]int, len(a.Pages)+1)
	n := 0
	for i, page := range a.Pages {
		off[i] = n
		n += len(page)
	}
	off[len(a.Pages)] = n
	a.pageOff = off
}

// workerScratch holds one fan-out worker's maps and buffers, kept on the
// analysis so the fixpoint's rounds reuse them instead of regrowing them
// every pass. Worker w of a page-chunked pass owns entry w.
type workerScratch struct {
	seen map[roleKey]int32 // assignRolesBy: chunk-local key ids
	keys []roleKey         // assignRolesBy: chunk-local keys, first-seen order
	aggs map[rsKey]slotAgg // slotOrdinals: the chunk's slot minima

	notCand []bool // computeRoleStats: role-indexed non-candidate marks
	cur     []int  // computeRoleStats: role-indexed arena cursors
}

// roleScratch holds the sequential buffers of assignRolesBy's merge,
// numbering and commit steps.
type roleScratch struct {
	idOf     map[roleKey]int32
	keys     []roleKey
	remap    [][]int32
	legacy   []byte   // the distinct keys' legacy forms, back to back
	offs     []int32  // legacy[offs[i]:offs[i+1]] is key i's form
	heads    []uint64 // each form's first eight bytes, big-endian
	perm     []int32
	rank     []int32
	oldToNew []int32
	newToOld []int32
}

// statsScratch holds the buffers behind computeRoleStats's result.
type statsScratch struct {
	stats []roleStat
	vecs  []int
	offs  []int
	arena []*Occurrence
}

// growWorkers sizes the per-worker scratch for a page-chunked pass.
func (a *Analysis) growWorkers() {
	if n := len(parallel.Chunks(a.params.Workers, len(a.Pages))); len(a.workers) < n {
		a.workers = append(a.workers, make([]workerScratch, n-len(a.workers))...)
	}
}

// dropScratch releases the fixpoint's reused buffers once the final
// hierarchy is built, so an analysis kept for its result (the wrapper's
// best run) does not pin them.
func (a *Analysis) dropScratch() {
	a.scopes = nil
	a.stats = nil
	a.labelsBuf, a.perOccBuf, a.ordBuf = nil, nil, nil
	a.workers = nil
	a.roles = roleScratch{}
	a.statsBuf = statsScratch{}
	a.scopeBuf = scopeScratch{}
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// assignRolesBy recomputes role ids from per-occurrence keys. key is
// called concurrently on disjoint page chunks and must be stateless.
//
// Determinism across worker counts: each worker numbers the distinct
// keys of its chunk in first-seen order; the worker lists are merged
// left-to-right into one global list, whose order depends on chunk
// boundaries — but the *set* of distinct keys does not, and the final
// numbering is assigned by sorting that set on the legacy string form
// (with a full field-wise tie-break for the pathological case of two
// distinct keys composing the same string). The sorted numbering is
// therefore a pure function of the key set, independent of chunking.
//
// Like its sequential predecessor, it reports whether the induced
// partition of occurrences changed — ids may be relabelled freely (keys
// carry generation tags), so change is detected as a broken old↔new
// bijection, which is order-independent.
func (a *Analysis) assignRolesBy(key func(*Occurrence) roleKey) bool {
	np := len(a.Pages)
	total := a.total()
	a.perOccBuf = resize(a.perOccBuf, total)
	perOcc := a.perOccBuf
	chunks := parallel.Chunks(a.params.Workers, np)
	a.growWorkers()
	locals, _ := parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, worker int, c parallel.Chunk) ([]roleKey, error) {
			ws := &a.workers[worker]
			if ws.seen == nil {
				ws.seen = make(map[roleKey]int32, len(a.roleKeys)+16)
			}
			seen := ws.seen
			clear(seen)
			keys := ws.keys[:0]
			for pi := c.Lo; pi < c.Hi; pi++ {
				gi := a.pageOff[pi]
				for _, o := range a.Pages[pi] {
					k := key(o)
					id, ok := seen[k]
					if !ok {
						id = int32(len(keys))
						seen[k] = id
						keys = append(keys, k)
					}
					perOcc[gi] = id
					gi++
				}
			}
			ws.keys = keys
			return keys, nil
		})

	// Merge the worker-local key lists into a global first-seen list,
	// remembering each local id's global id.
	rs := &a.roles
	if rs.idOf == nil {
		rs.idOf = make(map[roleKey]int32, len(a.roleKeys)+16)
	}
	idOf := rs.idOf
	clear(idOf)
	keys := rs.keys[:0]
	rs.remap = resize(rs.remap, len(locals))
	remap := rs.remap
	for w, lk := range locals {
		rm := resize(remap[w], len(lk))
		for li, k := range lk {
			gid, ok := idOf[k]
			if !ok {
				gid = int32(len(keys))
				idOf[k] = gid
				keys = append(keys, k)
			}
			rm[li] = gid
		}
		remap[w] = rm
	}
	rs.keys = keys

	// Final numbering: sort the distinct keys on their legacy string form
	// (see appendLegacy — the order is observable through frozen stale
	// role ids) and compose each worker remap with the sort ranks.
	// The forms' first eight bytes, big-endian and zero-padded, order
	// like the bytes themselves and settle most comparisons.
	legacy, offs := rs.legacy[:0], append(rs.offs[:0], 0)
	rs.heads = resize(rs.heads, len(keys))
	heads := rs.heads
	for i, k := range keys {
		legacy = a.appendLegacy(legacy, k)
		offs = append(offs, int32(len(legacy)))
		var h [8]byte
		copy(h[:], legacy[offs[i]:])
		heads[i] = binary.BigEndian.Uint64(h[:])
	}
	rs.legacy, rs.offs = legacy, offs
	form := func(i int32) []byte { return legacy[offs[i]:offs[i+1]] }
	perm := resize(rs.perm, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	rs.perm = perm
	slices.SortFunc(perm, func(i, j int32) int {
		if c := cmp.Compare(heads[i], heads[j]); c != 0 {
			return c
		}
		if c := bytes.Compare(form(i), form(j)); c != 0 {
			return c
		}
		return keyCmp(keys[i], keys[j])
	})
	rank := resize(rs.rank, len(keys))
	rs.rank = rank
	sorted := make([]roleKey, len(keys))
	for newID, old := range perm {
		rank[old] = int32(newID)
		sorted[newID] = keys[old]
	}
	for _, rm := range remap {
		for li := range rm {
			rm[li] = rank[rm[li]]
		}
	}

	// Commit pass: rewrite roles in page order, tracking the old↔new
	// bijection. The boolean outcome is a property of the two partitions,
	// not of visit order.
	oldRoles := len(a.roleKeys)
	if oldRoles == 0 {
		// Initial assignment: no role keys yet, but occurrences may carry
		// stale ids from an earlier analysis (pages copied off a consumed
		// base) — size the bijection off what is actually there.
		oldRoles = 1
		for _, page := range a.Pages {
			for _, o := range page {
				if o.role >= oldRoles {
					oldRoles = o.role + 1
				}
			}
		}
	}
	oldToNew := resize(rs.oldToNew, oldRoles)
	newToOld := resize(rs.newToOld, len(sorted))
	rs.oldToNew, rs.newToOld = oldToNew, newToOld
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for i := range newToOld {
		newToOld[i] = -1
	}
	changed := false
	w := 0
	for pi, page := range a.Pages {
		for w < len(chunks)-1 && pi >= chunks[w].Hi {
			w++
		}
		rm := remap[w]
		gi := a.pageOff[pi]
		for _, o := range page {
			r := rm[perOcc[gi]]
			gi++
			if n := oldToNew[o.role]; n >= 0 {
				if n != r {
					changed = true
				}
			} else {
				oldToNew[o.role] = r
			}
			if old := newToOld[r]; old >= 0 {
				if int(old) != o.role {
					changed = true
				}
			} else {
				newToOld[r] = int32(o.role)
			}
			o.role = int(r)
		}
	}
	a.roleKeys = sorted
	// Any renumbering (even an unchanged partition gets fresh ids from
	// the legacy sort) invalidates role-indexed caches.
	a.stats = nil
	return changed
}

// keyCmp is the deterministic field-wise tie-break for role keys whose
// legacy strings collide (possible only when a path or label itself
// contains the separator sequences). It keeps the sort total so the
// numbering cannot depend on chunk boundaries.
func keyCmp(x, y roleKey) int {
	return cmp.Or(
		cmp.Compare(x.kind, y.kind),
		cmp.Compare(x.val, y.val),
		cmp.Compare(x.pth, y.pth),
		cmp.Compare(x.gen, y.gen),
		cmp.Compare(x.eq, y.eq),
		cmp.Compare(x.slot, y.slot),
		cmp.Compare(x.ord, y.ord),
		cmp.Compare(x.ann, y.ann),
	)
}

// computeRoleStats aggregates per-role occurrence vectors, page
// coverage, template candidacy, and occurrence lists (page order, then
// position). Roles are dense, so the result is a flat []roleStat. The
// two passes fan out across page chunks: vector columns are per-page,
// so workers write disjoint slots of the shared backing array, and the
// occurrence arena is filled through per-(worker, role) cursors derived
// from the vector prefix sums — every cell has exactly one writer.
//
// The result lives in the analysis's reused buffers and is valid until
// the next call; classes copy the vectors they keep (see validateEQ).
func (a *Analysis) computeRoleStats() []roleStat {
	np := len(a.Pages)
	n := a.roleCount()
	sb := &a.statsBuf
	sb.stats = resize(sb.stats, n)
	sb.vecs = resize(sb.vecs, n*np)
	sb.offs = resize(sb.offs, n+1)
	stats, vecs, offs := sb.stats, sb.vecs, sb.offs
	clear(vecs)
	for r := range stats {
		stats[r] = roleStat{vector: vecs[r*np : (r+1)*np : (r+1)*np], cand: true}
	}
	a.growWorkers()
	// Pass 1: occurrence vectors, plus per-worker non-candidate marks
	// (merged by OR — commutative, so merge order is irrelevant).
	marks, _ := parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, worker int, c parallel.Chunk) ([]bool, error) {
			ws := &a.workers[worker]
			ws.notCand = resize(ws.notCand, n)
			notCand := ws.notCand
			clear(notCand)
			for pi := c.Lo; pi < c.Hi; pi++ {
				for _, o := range a.Pages[pi] {
					vecs[o.role*np+pi]++
					if !a.templateCandidate(o) {
						notCand[o.role] = true
					}
				}
			}
			return notCand, nil
		})
	for _, notCand := range marks {
		for r, bad := range notCand {
			if bad {
				stats[r].cand = false
			}
		}
	}
	// Page coverage and arena offsets from the completed vectors.
	total := 0
	for r := range stats {
		offs[r] = total
		for _, c := range stats[r].vector {
			if c > 0 {
				stats[r].pages++
			}
			total += c
		}
	}
	offs[n] = total
	sb.arena = resize(sb.arena, total)
	occArena := sb.arena
	// Pass 2: fill the per-role occurrence lists. A worker's cursor for
	// role r starts at offs[r] plus the occurrences of r on all pages
	// before its chunk — page-major iteration within the chunk then
	// reproduces exactly the sequential page order.
	if total > 0 {
		parallel.MapWorkersCtx(nil, a.params.Workers, np,
			func(_ context.Context, worker int, c parallel.Chunk) (struct{}, error) {
				ws := &a.workers[worker]
				ws.cur = resize(ws.cur, n)
				cur := ws.cur
				for r := 0; r < n; r++ {
					base := offs[r]
					for pi := 0; pi < c.Lo; pi++ {
						base += vecs[r*np+pi]
					}
					cur[r] = base
				}
				for pi := c.Lo; pi < c.Hi; pi++ {
					for _, o := range a.Pages[pi] {
						occArena[cur[o.role]] = o
						cur[o.role]++
					}
				}
				return struct{}{}, nil
			})
	}
	for r := range stats {
		stats[r].occs = occArena[offs[r]:offs[r+1]:offs[r+1]]
	}
	return stats
}
