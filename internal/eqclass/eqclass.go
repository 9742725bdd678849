package eqclass

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/symtab"
)

// Params tunes Algorithm 2.
type Params struct {
	// Support is the minimal number of pages in which a token must appear
	// to be a template candidate (varied between 3 and 5 in the paper's
	// experiments).
	Support int
	// AnnThreshold is the generalization threshold for incomplete or
	// conflicting annotations (0.7 in the paper).
	AnnThreshold float64
	// MaxIter bounds the outer fixpoint loop.
	MaxIter int
	// UseAnnotations enables the semantic criteria. Disabling it yields
	// the pure ExAlg-style baseline behaviour.
	UseAnnotations bool
	// Workers bounds the fan-out of the analysis passes inside the
	// fixpoint (role re-keying, occurrence-vector counting, annotation
	// labelling, scope painting). 0 (the default) means one worker per
	// available CPU; 1 forces the sequential path. Role numbering — and
	// therefore every downstream artifact — is byte-identical at any
	// worker count.
	Workers int
}

// DefaultParams mirrors the paper's configuration.
func DefaultParams() Params {
	return Params{Support: 3, AnnThreshold: 0.7, MaxIter: 10, UseAnnotations: true}
}

// normalized fills unset fields with the paper's defaults and resolves
// the worker count.
func (p Params) normalized() Params {
	if p.Support <= 0 {
		p.Support = 3
	}
	if p.AnnThreshold <= 0 {
		p.AnnThreshold = 0.7
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 10
	}
	p.Workers = parallel.Workers(p.Workers)
	return p
}

// Tuple is one repetition of an equivalence class on a page: the token
// positions of its k roles, in template order.
type Tuple struct {
	Positions []int
}

// First returns the position of the first separator.
func (t Tuple) First() int { return t.Positions[0] }

// Last returns the position of the last separator.
func (t Tuple) Last() int { return t.Positions[len(t.Positions)-1] }

// EQ is a valid equivalence class: a set of token roles having the same
// frequency of occurrences in each input page and a unique template role
// (paper §III.C). Roles are ordered; consecutive roles delimit the class's
// data slots.
type EQ struct {
	ID     int
	Roles  []int     // role ids in template (σ) order
	Descs  []Desc    // page-independent descriptors of the roles
	Vector []int     // occurrences per page
	Tuples [][]Tuple // per page, the class's repetitions in order

	// Hierarchy (filled by BuildHierarchy).
	Parent     *EQ
	ParentSlot int
	Children   []*EQ
	// OrderHint is the class's average token offset from the start of
	// the parent tuple containing it: children of one slot extract in
	// this order when their separator descriptors are structurally
	// identical (annotation-differentiated roles look alike on unseen
	// pages).
	OrderHint float64
}

// K returns the number of roles (separators) in the class.
func (e *EQ) K() int { return len(e.Roles) }

// Slots returns the number of interior data slots (K-1).
func (e *EQ) Slots() int {
	if e.K() < 2 {
		return 0
	}
	return e.K() - 1
}

// String renders a compact description for diagnostics.
func (e *EQ) String() string {
	var parts []string
	for _, d := range e.Descs {
		parts = append(parts, d.String())
	}
	return fmt.Sprintf("EQ%d%v [%s]", e.ID, e.Vector, strings.Join(parts, " "))
}

// Analysis is the result of running Algorithm 2 over a page sample.
type Analysis struct {
	// Pages holds the token sequences, with final role assignments.
	Pages [][]*Occurrence
	// EQs are the valid equivalence classes, in discovery order.
	EQs []*EQ
	// Conflicts counts the conflicting-annotation events observed; the
	// wrapper's self-validation loop uses it as a quality estimate.
	Conflicts int
	// Iterations is the number of outer-loop iterations performed.
	Iterations int

	params Params
	// tab interns token values, paths, and annotation labels for this
	// analysis; role keys and descriptors reference its symbols.
	tab *symtab.Table
	// roleKeys maps role id to its structural key.
	roleKeys []roleKey
	// profiles holds per-class slot profiles, indexed by EQ id (filled by
	// BuildHierarchy).
	profiles [][]SlotProfile
	// obs receives the per-step events of AnalyzeObserved.
	obs *obs.Observer
	// scopes is the innermost-slot painting of the current hierarchy,
	// computed once by BuildHierarchy and reused by the differentiate
	// call that follows it (scopes depend only on the classes' tuples).
	scopes [][]scope
	// pageOff is the flat occurrence layout (see initLayout), shared
	// with the Base the analysis resumed from.
	pageOff []int
	// stats caches the per-role aggregation of the most recent
	// findEQs/shard for the annotation pass of the following
	// differentiate call; any role renumbering invalidates it.
	stats []roleStat
	// labelsBuf and perOccBuf are flat per-occurrence buffers (annotation
	// label syms; worker-local key ids) reused across differentiate and
	// assignRolesBy calls.
	labelsBuf []symtab.Sym
	perOccBuf []int32
	// ordBuf holds the positional ordinals of slotOrdinals, in the same
	// flat layout.
	ordBuf []int32
	// workers, roles, statsBuf and scopeBuf hold the maps and buffers of
	// the fan-out passes, role renumbering, role aggregation and scope
	// painting, reused across the fixpoint's rounds.
	workers  []workerScratch
	roles    roleScratch
	statsBuf statsScratch
	scopeBuf scopeScratch
}

// roleCount returns the number of distinct roles currently assigned.
func (a *Analysis) roleCount() int { return len(a.roleKeys) }

// Table returns the symbol table the analysis interned its pages into.
func (a *Analysis) Table() *symtab.Table { return a.tab }

// total returns the token count across all pages.
func (a *Analysis) total() int {
	if a.pageOff != nil {
		return a.pageOff[len(a.Pages)]
	}
	n := 0
	for _, page := range a.Pages {
		n += len(page)
	}
	return n
}

// Analyze runs Algorithm 2: differentiate roles by HTML features, then
// iterate {find EQs; differentiate by EQ positions and non-conflicting
// annotations} to a fixpoint, then apply conflicting annotations, until
// the outer fixpoint. The abort check of §III.E runs in the wrapper
// package between iterations via the Hook.
func Analyze(pages [][]*Occurrence, p Params, hook func(a *Analysis) bool) *Analysis {
	return AnalyzeObserved(pages, p, hook, nil)
}

// AnalyzeObserved is Analyze reporting the role counts and EQ counts of
// every differentiation step — (i) HTML features, (ii) positions within
// equivalence classes, (iii) non-conflicting and (iv) conflicting
// annotations — plus invalid-EQ salvage events, to the observer.
func AnalyzeObserved(pages [][]*Occurrence, p Params, hook func(a *Analysis) bool, ob *obs.Observer) *Analysis {
	return AnalyzeTable(pages, p, hook, ob, nil)
}

// AnalyzeTable is AnalyzeObserved interning into a caller-supplied symbol
// table (nil creates a private one). Occurrences already carrying symbols
// must have been interned against the same table; they are not re-interned.
// It is the staged core run end to end for a single support value: build
// the per-corpus Base snapshot, then run the fixpoint in place on the
// caller's pages (their occurrences carry the final role assignment).
// Callers that vary the support should build the Base once and call its
// Analyze per value instead.
func AnalyzeTable(pages [][]*Occurrence, p Params, hook func(a *Analysis) bool, ob *obs.Observer, tab *symtab.Table) *Analysis {
	b := NewBase(pages, p, ob, tab)
	return b.analyzeInPlace(hook, ob)
}

// roleKey is the comparable role-differentiation key. kind/val/pth are
// the HTML-feature base (criterion i); gen/eq/slot/ord record the
// positional refinement of criterion (ii), tagged with the generation so
// stale keys from earlier class ids cannot collide; ann is the interned
// annotation label of criteria (iii)/(iv), symtab.None when absent. All
// fields are 32 bits wide, so the key hashes as one padding-free block.
type roleKey struct {
	kind          int32 // TokKind
	val, pth      symtab.Sym
	gen           int32
	eq, slot, ord int32
	ann           symtab.Sym
}

// appendLegacy appends the historical string form of a role key
// ("kind|value|path" + "|g<gen>.eq<id>.s<slot>.o<ord>" + "|t:<label>").
// Role numbering sorts distinct keys on this form: numbering order is
// observable — the conflicting-annotation pass freezes roles through
// class role-id sets recorded before the last renumbering, so a
// different sort order would shift which roles those stale ids hit.
// Composing the form once per distinct key (a few hundred per pass)
// keeps the comparison cheap without hashing strings per occurrence.
func (a *Analysis) appendLegacy(b []byte, k roleKey) []byte {
	b = strconv.AppendInt(b, int64(k.kind), 10)
	b = append(b, '|')
	b = append(b, a.tab.StringOf(k.val)...)
	b = append(b, '|')
	b = append(b, a.tab.StringOf(k.pth)...)
	if k.gen != 0 {
		b = append(b, "|g"...)
		b = strconv.AppendInt(b, int64(k.gen), 10)
		b = append(b, ".eq"...)
		b = strconv.AppendInt(b, int64(k.eq), 10)
		b = append(b, ".s"...)
		b = strconv.AppendInt(b, int64(k.slot), 10)
		b = append(b, ".o"...)
		b = strconv.AppendInt(b, int64(k.ord), 10)
	}
	if k.ann != symtab.None {
		b = append(b, "|t:"...)
		b = append(b, a.tab.StringOf(k.ann)...)
	}
	return b
}

// baseKey is the HTML-feature role key.
func baseKey(o *Occurrence) roleKey {
	return roleKey{kind: int32(o.Kind), val: o.Val, pth: o.Pth}
}

// templateCandidate reports whether the occurrence may serve as a
// template (separator) token. Words carrying entity-type annotations are
// data by definition when annotations are enabled.
func (a *Analysis) templateCandidate(o *Occurrence) bool {
	if a.params.UseAnnotations && o.Kind == KindWord && o.Annotated() {
		return false
	}
	return true
}

// roleStat aggregates a role's occurrence vector, page coverage, and
// occurrences (page order then position). Roles are dense, so analysis
// passes index a flat []roleStat instead of hashing role keys.
type roleStat struct {
	vector []int
	pages  int
	occs   []*Occurrence
	cand   bool
}

// findEQs groups template-candidate roles by occurrence vector, validates
// order and nesting, and returns the valid equivalence classes. The
// per-role aggregation is cached on the analysis for the annotation pass
// of the following differentiate call.
func (a *Analysis) findEQs() []*EQ {
	stats := a.computeRoleStats()
	a.stats = stats
	return a.classesFrom(stats, a.params.Support)
}

// classesFrom runs the grouping + validation half of findEQs on an
// existing per-role aggregation, for one support value.
func (a *Analysis) classesFrom(stats []roleStat, support int) []*EQ {
	if np := len(a.Pages); support > np {
		support = np
	}
	var eqs []*EQ
	for _, roles := range groupRoles(stats, support) {
		out, invalid := a.salvageEQs(roles, stats)
		if invalid {
			a.countInvalidGroup(len(roles))
		}
		for _, eq := range out {
			eq.ID = len(eqs) + 1
			eqs = append(eqs, eq)
		}
	}
	return eqs
}

// groupRoles returns the template-candidate role groups (same occurrence
// vector, page coverage >= support) in sorted vector-key order; each
// group lists its roles in ascending id order. The group key replicates
// the fmt.Sprint([]int) form "[1 2 3]" — group order is sorted on this
// string and determines class ids, which are visible in reports, so the
// historical ordering is load-bearing.
func groupRoles(stats []roleStat, support int) [][]int {
	index := make(map[string]int) // vector key -> group
	var keys []string
	var groups [][]int
	var buf []byte
	for r := range stats {
		st := &stats[r]
		if !st.cand || st.pages < support {
			continue
		}
		buf = appendVector(buf[:0], st.vector)
		g, ok := index[string(buf)]
		if !ok {
			g = len(groups)
			key := string(buf)
			index[key] = g
			keys = append(keys, key)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	sort.Strings(keys)
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = groups[index[k]]
	}
	return out
}

// countInvalidGroup records one same-vector group failing the ordered-
// and-nested test (invalid-EQ accounting).
func (a *Analysis) countInvalidGroup(roles int) {
	a.obs.Count("eqclass.invalid_eqs", 1)
	a.obs.Event("eqclass.invalid_eq", obs.A("roles", roles))
}

// cloneForRun copies a base prototype class for one analysis run: the
// immutable parts (roles, vector, tuples) are shared across runs, the
// descriptors are copied (computeDescOrdinals mutates their ordinals),
// and the hierarchy links start zero-valued exactly like a class fresh
// out of validateEQ (BuildHierarchy fills them per run).
func (e *EQ) cloneForRun() *EQ {
	descs := make([]Desc, len(e.Descs))
	copy(descs, e.Descs)
	return &EQ{Roles: e.Roles, Descs: descs, Vector: e.Vector, Tuples: e.Tuples}
}

// appendVector formats an occurrence vector exactly like
// fmt.Sprint([]int): "[3 3 4]".
func appendVector(buf []byte, v []int) []byte {
	buf = append(buf, '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, ']')
}

// salvageEQs handles invalid candidate classes (Algorithm 2, "handle
// invalid EQs"): when a same-vector group fails the ordered-and-nested
// test — typically because a data word coincidentally shares the vector —
// progressively smaller subgroups are retried: the tag tokens alone, then
// the tag tokens partitioned by DOM path. Members excluded from a class
// simply remain data. The invalid flag reports that salvage was entered;
// the caller owns the accounting (countInvalidGroup), so the base
// snapshot can validate once and re-report per sharded run.
func (a *Analysis) salvageEQs(roles []int, stats []roleStat) (out []*EQ, invalid bool) {
	if eq := validateEQ(roles, stats); eq != nil {
		return []*EQ{eq}, false
	}
	// The same-vector group failed the ordered-and-nested test and enters
	// progressive salvage.
	// Each role's first occurrence (page order) is its representative for
	// kind and path.
	rep := func(r int) *Occurrence { return stats[r].occs[0] }
	var tags []int
	for _, r := range roles {
		if rep(r).Kind != KindWord {
			tags = append(tags, r)
		}
	}
	if len(tags) > 0 && len(tags) < len(roles) {
		if eq := validateEQ(tags, stats); eq != nil {
			return []*EQ{eq}, true
		}
	}
	if len(tags) < 2 {
		return nil, true
	}
	byPath := make(map[string][]int)
	for _, r := range tags {
		byPath[rep(r).Path] = append(byPath[rep(r).Path], r)
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		// Subgroups inherit the ascending role order of tags.
		if eq := validateEQ(byPath[p], stats); eq != nil {
			out = append(out, eq)
		}
	}
	return out, true
}

// validateEQ checks the ordered-and-nested property: on every page the
// occurrences of the class's roles must form the same role sequence σ
// repeated vector[p] times. It returns the class with its tuples, or nil
// when invalid (such classes are discarded — Algorithm 2, "handle invalid
// EQs").
//
// The roles share one occurrence vector, so on page p each role has
// exactly vector[p] occurrences, a contiguous run of its stats occurrence
// list (page order, then position). σ is the order of the roles' first
// occurrences on the first page they appear on, and the page is σ
// repeated exactly when the t-th occurrence of σ[i] sits before the t-th
// of σ[i+1] and the t-th of σ[k-1] before the (t+1)-th of σ[0] — so the
// check reads the role lists, never the pages.
func validateEQ(roles []int, stats []roleStat) *EQ {
	k := len(roles)
	vector := stats[roles[0]].vector
	n := 0
	for _, c := range vector {
		n += c
	}
	if n == 0 {
		return nil
	}
	// Order the roles into σ by their first occurrence: every role's list
	// starts on the same (first covered) page.
	sigma := slices.Clone(roles)
	slices.SortFunc(sigma, func(x, y int) int {
		return cmp.Compare(stats[x].occs[0].Pos, stats[y].occs[0].Pos)
	})
	tuples := make([][]Tuple, len(vector))
	tupArena := make([]Tuple, n)
	// One int arena holds the class's own copy of the vector (the stats
	// buffers are reused by the next aggregation) and every tuple.
	posArena := make([]int, len(vector)+n*k)
	vec := posArena[:len(vector):len(vector)]
	copy(vec, vector)
	posArena = posArena[len(vector):]
	off := 0 // occurrences of each role consumed on earlier pages
	for pi, v := range vector {
		if v == 0 {
			continue
		}
		tups := tupArena[:v:v]
		tupArena = tupArena[v:]
		prev := -1
		for t := range tups {
			pos := posArena[:k:k]
			posArena = posArena[k:]
			for i, r := range sigma {
				o := stats[r].occs[off+t]
				if o.Pos <= prev {
					return nil
				}
				pos[i], prev = o.Pos, o.Pos
			}
			tups[t] = Tuple{Positions: pos}
		}
		tuples[pi] = tups
		off += v
	}
	descs := make([]Desc, k)
	for i, r := range sigma {
		descs[i] = DescOf(stats[r].occs[0])
	}
	return &EQ{Roles: sigma, Descs: descs, Vector: vec, Tuples: tuples}
}

// scope identifies the innermost equivalence-class slot containing a
// token position.
type scope struct {
	eq    int32 // EQ id; -1 outside every class
	tuple int32 // tuple ordinal on the page
	slot  int32 // interior slot index
}

// scopeScratch holds computeScopes's reused buffers.
type scopeScratch struct {
	cells []scope
	rows  [][]scope
}

// computeScopes paints, for every page position, the innermost (EQ,
// tuple, slot) containing it. It runs on a built hierarchy (a.EQs as
// BuildHierarchy leaves them), where any two class tuples are either
// disjoint or one lies strictly inside one slot of the other, and every
// container precedes the classes it contains: painting the classes in
// that order lets inner classes overwrite outer ones, with no sort.
// Pages are independent, so the painting fans out per page into one flat
// arena; the rows live in reused buffers and are valid until the next
// call.
func (a *Analysis) computeScopes() [][]scope {
	np := len(a.Pages)
	sb := &a.scopeBuf
	sb.cells = resize(sb.cells, a.total())
	sb.rows = resize(sb.rows, np)
	cells, scopes := sb.cells, sb.rows
	for pi, page := range a.Pages {
		scopes[pi] = cells[:len(page):len(page)]
		cells = cells[len(page):]
	}
	parallel.ForEach(a.params.Workers, np, func(pi int) {
		row := scopes[pi]
		for i := range row {
			row[i] = scope{eq: -1}
		}
		for _, eq := range a.EQs {
			for ti, t := range eq.Tuples[pi] {
				for s := 0; s+1 < len(t.Positions); s++ {
					sc := scope{eq: int32(eq.ID), tuple: int32(ti), slot: int32(s)}
					for p := t.Positions[s] + 1; p < t.Positions[s+1]; p++ {
						row[p] = sc
					}
				}
			}
		}
	})
	return scopes
}

// differentiate recomputes roles with the positional (EQ + ordinal) and
// annotation criteria. Roles that belong to a valid class of the current
// hierarchy are "deemed unique" already and keep their keys unchanged —
// in particular, the repeated occurrences of an iterator class (a record
// <li> appearing a varying number of times per page) are never split.
// Free roles are refined by their innermost (class, slot) scope plus an
// ordinal, settling on the minimal number of consecutive occurrences
// across tuples (paper §III.C), and by annotation labels. With
// conflicting=false only unambiguous single-type annotations participate;
// with conflicting=true, disagreeing roles are resolved by majority
// generalization at the AnnThreshold and unresolved disagreements are
// counted as conflicts.
func (a *Analysis) differentiate(conflicting bool, generation int) bool {
	scopes := a.scopes

	// Roles of current valid classes are frozen — except, when semantic
	// annotations are in play, those of child classes repeating a
	// constant number of times (>= 2) per parent tuple: such classes are
	// structural repetition, not iterators, and their tokens play several
	// distinct roles (the three <div>s of the running example). Those are
	// dissolved for ordinal differentiation. The paper is explicit that
	// positions in the HTML tree and in equivalence classes alone do not
	// suffice to tell the roles apart (§III.C) — so the purely structural
	// baseline (UseAnnotations=false) keeps such classes as nested
	// iterators, exactly like ExAlg.
	// e.Roles may hold ids from the numbering in effect when findEQs last
	// ran — assignRoles renumbers on every differentiate call, so after a
	// changed inner round these ids are stale (and can exceed the current
	// role count). The legacy-string sort order in assignRoles keeps this
	// aliasing deterministic; size the bitmap for both numberings.
	nRoles := a.roleCount()
	for _, e := range a.EQs {
		for _, r := range e.Roles {
			if r >= nRoles {
				nRoles = r + 1
			}
		}
	}
	frozen := make([]bool, nRoles)
	for _, e := range a.EQs {
		freeze := true
		if a.params.UseAnnotations && e.Parent != nil {
			if constant, c := Multiplicity(e.Parent, e); constant && c >= 2 {
				freeze = false
			}
		}
		if freeze {
			for _, r := range e.Roles {
				frozen[r] = true
			}
		}
	}

	// Ordinals and their bounds: each free in-scope occurrence's 1-based
	// index among its role's occurrences in its (class, tuple, slot), and
	// for each free (role, class, slot) the minimal count over the tuples
	// that contain the role at all.
	minPerSlot := a.slotOrdinals(scopes, frozen)
	ords := a.ordBuf

	// Annotation labels per occurrence. Annotations apply to frozen roles
	// too: a frozen iterator class whose token occurrences carry distinct
	// types (the classless record <div>s) must still be differentiated —
	// freezing only shields roles from positional re-splitting.
	labels := a.annotationSyms(conflicting)

	// Recompute keys: frozen roles keep their previous key modulo the
	// annotation label; free occurrences get base + scope/ordinal +
	// annotation label, tagged with the generation so stale keys from
	// earlier class ids cannot collide.
	gen := int32(generation)
	return a.assignRolesBy(func(o *Occurrence) roleKey {
		gi := a.pageOff[o.Page] + o.Pos
		var ann symtab.Sym
		if labels != nil {
			ann = labels[gi]
		}
		if frozen[o.role] {
			k := a.roleKeys[o.role]
			k.ann = ann
			return k
		}
		sc := scopes[o.Page][o.Pos]
		k := baseKey(o)
		if sc.eq >= 0 {
			m := minPerSlot[rsKey{int32(o.role), sc.eq, sc.slot}].min
			ord := ords[gi]
			if ord > m {
				ord = m + 1 // overflow bucket beyond the minimal count
			}
			k.gen = gen
			k.eq = sc.eq
			k.slot = sc.slot
			k.ord = ord
		}
		k.ann = ann
		return k
	})
}

// rsKey identifies a free role within one slot of one class, for the
// ordinal bounds of positional differentiation.
type rsKey struct {
	role, eq, slot int32
}

// slotAgg accumulates one (role, class, slot)'s occurrence counts per
// class repetition.
type slotAgg struct {
	page, tuple int32 // identity of the current run
	count       int32 // occurrences in the current run
	min         int32 // min over finalized runs; -1 until one finishes
}

// slotOrdinals numbers, in a.ordBuf (indexed by the pageOff layout), each
// free in-scope occurrence within its role's occurrences in its (page,
// class, tuple, slot), and returns for each free (role, class, slot) the
// minimal such count over the (page, tuple) pairs containing the role,
// in the min field of the aggregates.
//
// A key's occurrences of one class repetition are contiguous in page
// position order (tuples of a class never interleave), so the counts
// reduce by run-length without a nested map, and the running count is
// the occurrence's ordinal. Tuples never span pages, so per-chunk
// partial minima merge by min — commutative, hence worker-count
// independent. The maps are the workers' reused scratch: the result is
// valid until the next call.
func (a *Analysis) slotOrdinals(scopes [][]scope, frozen []bool) map[rsKey]slotAgg {
	np := len(a.Pages)
	a.growWorkers()
	a.ordBuf = resize(a.ordBuf, a.total())
	ords := a.ordBuf
	locals, _ := parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, worker int, c parallel.Chunk) (map[rsKey]slotAgg, error) {
			ws := &a.workers[worker]
			if ws.aggs == nil {
				ws.aggs = make(map[rsKey]slotAgg)
			}
			aggs := ws.aggs
			clear(aggs)
			for pi := c.Lo; pi < c.Hi; pi++ {
				gi := a.pageOff[pi]
				for i, o := range a.Pages[pi] {
					sc := scopes[pi][i]
					if sc.eq < 0 || frozen[o.role] {
						continue
					}
					k := rsKey{int32(o.role), sc.eq, sc.slot}
					ag, ok := aggs[k]
					switch {
					case !ok:
						ag = slotAgg{page: int32(pi), tuple: sc.tuple, count: 1, min: -1}
					case ag.page == int32(pi) && ag.tuple == sc.tuple:
						ag.count++
					default:
						if ag.min < 0 || ag.count < ag.min {
							ag.min = ag.count
						}
						ag.page, ag.tuple, ag.count = int32(pi), sc.tuple, 1
					}
					aggs[k] = ag
					ords[gi+i] = ag.count
				}
			}
			// Close the open runs: each is a run like any other.
			for k, ag := range aggs {
				if ag.min < 0 || ag.count < ag.min {
					ag.min = ag.count
					aggs[k] = ag
				}
			}
			return aggs, nil
		})
	if len(locals) == 0 {
		return nil
	}
	out := locals[0]
	for _, local := range locals[1:] {
		for k, ag := range local {
			if cur, ok := out[k]; !ok || ag.min < cur.min {
				out[k] = ag
			}
		}
	}
	return out
}

// annotationSyms decides, per occurrence, the annotation label used for
// role differentiation, as interned symbols in a flat buffer indexed by
// the pageOff layout (symtab.None = unlabelled; labels are non-empty
// type names, so None is unambiguous). Returns nil when annotations are
// disabled.
//
// Non-conflicting phase: a role whose occurrences carry one consistent
// type is labelled wholesale when the annotated share reaches
// AnnThreshold (the paper's incomplete-annotation generalization); a role
// whose occurrences are each uniquely typed with different types splits
// by type. Sparse mixed roles and roles with multi-type occurrences are
// deferred.
//
// Conflicting phase: deferred roles are resolved by majority
// generalization at AnnThreshold; overridden or unresolved annotations
// are counted as conflicts (the wrapper's quality estimate).
//
// Decisions are independent per role, so the pass fans out across role
// chunks: every occurrence has exactly one role, hence exactly one
// writer for its label slot, and per-worker conflict counts merge by sum
// (commutative). Type names were pre-interned by NewBase, so the
// concurrent Intern calls all take the table's read path.
func (a *Analysis) annotationSyms(conflicting bool) []symtab.Sym {
	if !a.params.UseAnnotations {
		return nil
	}
	if conflicting {
		// Conflicts reflect the current role assignment; recount on each
		// conflicting pass rather than accumulating across passes.
		a.Conflicts = 0
	}
	// Group occurrences by role, reusing the aggregation of the findEQs
	// (or shard) round this differentiate call follows when still valid.
	stats := a.stats
	if stats == nil {
		stats = a.computeRoleStats()
	}
	total := a.total()
	if cap(a.labelsBuf) < total {
		a.labelsBuf = make([]symtab.Sym, total)
	}
	labels := a.labelsBuf[:total]
	clear(labels)
	n := len(stats)
	confl, _ := parallel.MapWorkersCtx(nil, a.params.Workers, n,
		func(_ context.Context, _ int, c parallel.Chunk) (int, error) {
			conflicts := 0
			label := func(o *Occurrence, t string) {
				labels[a.pageOff[o.Page]+o.Pos] = a.tab.Intern(t)
			}
			typeCounts := make(map[string]int) // cleared per role
			var keys []string
			for r := c.Lo; r < c.Hi; r++ {
				occs := stats[r].occs
				hasMulti := false
				sole := "" // the single type name while len(typeCounts) == 1
				clear(typeCounts)
				annotated := 0
				for _, o := range occs {
					if len(o.Types) > 1 {
						hasMulti = true
					}
					if len(o.Types) > 0 {
						annotated++
						for _, t := range o.Types {
							typeCounts[t]++
						}
						if len(typeCounts) == 1 {
							sole = o.Types[0]
						}
					}
				}
				if annotated == 0 {
					continue
				}
				annShare := float64(annotated) / float64(len(occs))
				if !conflicting {
					switch {
					case hasMulti:
						// Deferred to the conflicting phase.
					case len(typeCounts) == 1:
						if annShare >= a.params.AnnThreshold {
							for _, o := range occs {
								label(o, sole)
							}
						}
						// Too sparse to trust: leave unlabelled rather than
						// splitting annotated from unannotated occurrences.
					default:
						// Several distinct types share the role (the classless
						// <div>s of the running example): split the annotated
						// occurrences by their type; unannotated ones stay in
						// the base role. This is how annotations differentiate
						// roles that positions alone cannot (paper §III.C).
						for _, o := range occs {
							if t := o.SingleType(); t != "" {
								label(o, t)
							}
						}
					}
					continue
				}
				// Conflicting phase: majority generalization over the role.
				best, bestCount, annTotal := "", 0, 0
				keys = keys[:0]
				for t := range typeCounts {
					keys = append(keys, t)
				}
				sort.Strings(keys)
				for _, t := range keys {
					c := typeCounts[t]
					annTotal += c
					if c > bestCount {
						best, bestCount = t, c
					}
				}
				if len(typeCounts) == 1 && !hasMulti {
					// Consistent but possibly sparse; nothing conflicting here.
					if annShare >= a.params.AnnThreshold {
						for _, o := range occs {
							label(o, best)
						}
					}
					continue
				}
				if float64(bestCount)/float64(annTotal) >= a.params.AnnThreshold {
					conflicts += annTotal - bestCount
					for _, o := range occs {
						label(o, best)
					}
					continue
				}
				// Unresolvable: count the conflict, leave occurrences unlabeled.
				conflicts += annTotal
			}
			return conflicts, nil
		})
	for _, c := range confl {
		a.Conflicts += c
	}
	return labels
}
