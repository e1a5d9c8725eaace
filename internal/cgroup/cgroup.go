// Package cgroup models a hierarchy of control groups over the simulated
// machine's processes, the way Linux cgroups group PIDs under nested paths
// ("web", "web/api"). The PowerAPI pipeline uses the hierarchy to monitor
// container-level targets: a cgroup's power is the power of its member
// processes, descendants included, so nested groups roll up to their parents
// and the per-target attribution stays conserved against the machine total.
//
// Membership follows the cgroup-v2 rule: a PID belongs to at most one group
// at a time (its leaf); adding it to another group moves it. Ancestors
// observe the PID through recursive membership, not through a second entry,
// which is what makes the aggregation double-count free.
package cgroup

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"powerapi/internal/target"
)

// Separator joins path segments of nested groups.
const Separator = "/"

// group is one node of the hierarchy.
type group struct {
	path     string
	children map[string]*group
	members  map[int]bool
}

// Hierarchy is a tree of control groups over process IDs. It is safe for
// concurrent use: the monitoring pipeline reads memberships from the
// aggregator goroutine while the driver mutates them between rounds.
type Hierarchy struct {
	mu     sync.RWMutex
	groups map[string]*group
	leaf   map[int]placement // pid → the one group that directly holds it
	// pending lists the PIDs an Add placed since the last Prune, in no
	// order; each one's placement holds its index. Leave takes a PID out, so
	// pending never outgrows leaf. It is a slice, not a set: it empties every
	// Prune, and iterating a cleared map still walks its old capacity.
	pending []int
	// gen counts the changes to membership or shape: a new group, a Delete,
	// an Add that places or moves a PID, a Leave and a Prune that removed
	// something. Between two equal readings the hierarchy is unchanged.
	gen uint64
	// snap is the read view built at generation snap.gen; Snapshot rebuilds
	// it on the first read after gen moves.
	snap *Snapshot
}

// placement is where a member PID sits: its leaf group's path and, while the
// PID awaits Prune's check, 1 + its index in Hierarchy.pending (0 otherwise).
type placement struct {
	path    string
	pending int
}

// Snapshot is a read-only view of a hierarchy at one generation: every group
// path, sorted, and each path's recursive members, sorted. The monitoring
// round reads it in place of walking the tree; its slices are shared by
// every reader and must not be modified.
type Snapshot struct {
	gen     uint64
	paths   []string
	members map[string][]int // path → recursive members; absent when none
}

// NewHierarchy creates an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		groups: make(map[string]*group),
		leaf:   make(map[int]placement),
	}
}

// ValidatePath checks a hierarchy path: one or more "/"-separated segments of
// letters, digits, '.', '_' and '-'.
func ValidatePath(path string) error {
	if path == "" {
		return errors.New("cgroup: empty path")
	}
	for _, seg := range strings.Split(path, Separator) {
		if seg == "" {
			return fmt.Errorf("cgroup: path %q has an empty segment", path)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("cgroup: path %q contains invalid character %q", path, r)
			}
		}
	}
	return nil
}

// Ancestors returns the proper ancestors of a path, outermost first
// ("web/api/v2" → ["web", "web/api"]).
func Ancestors(path string) []string {
	segs := strings.Split(path, Separator)
	if len(segs) <= 1 {
		return nil
	}
	out := make([]string, 0, len(segs)-1)
	for i := 1; i < len(segs); i++ {
		out = append(out, strings.Join(segs[:i], Separator))
	}
	return out
}

// InSubtree reports whether path is root itself or nested anywhere below it
// ("web/api" is in the "web" subtree; "webapp" is not).
func InSubtree(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+Separator)
}

// Create adds a group (and any missing ancestors) to the hierarchy. Creating
// an existing group is idempotent.
func (h *Hierarchy) Create(path string) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.create(path)
	return nil
}

func (h *Hierarchy) create(path string) *group {
	if g, ok := h.groups[path]; ok {
		return g
	}
	g := &group{path: path, children: make(map[string]*group), members: make(map[int]bool)}
	h.groups[path] = g
	h.gen++
	if anc := Ancestors(path); len(anc) > 0 {
		parent := h.create(anc[len(anc)-1])
		parent.children[path] = g
	}
	return g
}

// Delete removes a group. The group must be empty: no member PIDs (anywhere
// in its subtree) and no child groups.
func (h *Hierarchy) Delete(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.groups[path]
	if !ok {
		return fmt.Errorf("cgroup: no such group %q", path)
	}
	if len(g.children) > 0 {
		return fmt.Errorf("cgroup: group %q still has child groups", path)
	}
	if len(g.members) > 0 {
		return fmt.Errorf("cgroup: group %q still has member processes", path)
	}
	delete(h.groups, path)
	h.gen++
	if anc := Ancestors(path); len(anc) > 0 {
		if parent, ok := h.groups[anc[len(anc)-1]]; ok {
			delete(parent.children, path)
		}
	}
	return nil
}

// Exists reports whether a group is part of the hierarchy.
func (h *Hierarchy) Exists(path string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.groups[path]
	return ok
}

// Add places a PID in a group, creating the group if needed. A PID lives in
// exactly one group at a time: adding it to a second group moves it there,
// mirroring a write to cgroup.procs.
func (h *Hierarchy) Add(path string, pid int) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	if pid <= 0 {
		return fmt.Errorf("cgroup: invalid pid %d", pid)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pl, placed := h.leaf[pid]
	if placed {
		if pl.path == path {
			return nil
		}
		delete(h.groups[pl.path].members, pid)
	} else {
		h.pending = append(h.pending, pid)
		pl.pending = len(h.pending)
	}
	h.create(path).members[pid] = true
	pl.path = path
	h.leaf[pid] = pl
	h.gen++
	return nil
}

// Generation returns the hierarchy's change count. Between two equal readings
// no group was created or deleted and no PID joined, moved or left.
func (h *Hierarchy) Generation() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen
}

// Leave removes a PID from the hierarchy entirely.
func (h *Hierarchy) Leave(pid int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	pl, ok := h.leaf[pid]
	if !ok {
		return fmt.Errorf("cgroup: pid %d is not in any group", pid)
	}
	if pl.pending != 0 {
		// Swap the last pending PID into this one's index.
		i, last := pl.pending-1, h.pending[len(h.pending)-1]
		h.pending[i] = last
		h.pending = h.pending[:len(h.pending)-1]
		if last != pid {
			moved := h.leaf[last]
			moved.pending = i + 1
			h.leaf[last] = moved
		}
	}
	delete(h.groups[pl.path].members, pid)
	delete(h.leaf, pid)
	h.gen++
	return nil
}

// LeafOf returns the group that directly holds a PID.
func (h *Hierarchy) LeafOf(pid int) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pl, ok := h.leaf[pid]
	return pl.path, ok
}

// Members returns the PIDs held directly by a group, sorted.
func (h *Hierarchy) Members(path string) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.groups[path]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(g.members))
	for pid := range g.members {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// MembersRecursive returns the PIDs of a group's whole subtree, sorted — the
// membership a container runtime reports for a slice. The slice is the
// caller's copy.
func (h *Hierarchy) MembersRecursive(path string) []int {
	return append([]int(nil), h.Snapshot().Recursive(path)...)
}

// Paths returns every group path, sorted; parents precede their children.
func (h *Hierarchy) Paths() []string {
	return append([]string(nil), h.Snapshot().Paths()...)
}

// Snapshot returns the read view of the hierarchy's current generation,
// building it if a change was made since the last call. Rounds without a
// change share one view.
//
//powerapi:hotpath
func (h *Hierarchy) Snapshot() *Snapshot {
	h.mu.RLock()
	snap := h.snap
	gen := h.gen
	h.mu.RUnlock()
	if snap != nil && snap.gen == gen {
		return snap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.snap == nil || h.snap.gen != h.gen {
		//powerapi:allow hotpath rebuilt once per hierarchy change, not per round
		h.snap = h.buildSnapshotLocked()
	}
	return h.snap
}

// buildSnapshotLocked computes the read view of the current generation. A
// child's path sorts after its parent's (the parent is a prefix), so walking
// the sorted paths backwards finishes every child before its parent, whose
// recursive members are its own plus its children's. Callers hold h.mu for
// writing.
func (h *Hierarchy) buildSnapshotLocked() *Snapshot {
	snap := &Snapshot{
		gen:     h.gen,
		paths:   make([]string, 0, len(h.groups)),
		members: make(map[string][]int, len(h.groups)),
	}
	for path := range h.groups {
		snap.paths = append(snap.paths, path)
	}
	sort.Strings(snap.paths)
	for i := len(snap.paths) - 1; i >= 0; i-- {
		g := h.groups[snap.paths[i]]
		n := len(g.members)
		for child := range g.children {
			n += len(snap.members[child])
		}
		if n == 0 {
			continue
		}
		all := make([]int, 0, n)
		for pid := range g.members {
			all = append(all, pid)
		}
		for child := range g.children {
			all = append(all, snap.members[child]...)
		}
		sort.Ints(all)
		snap.members[g.path] = all
	}
	return snap
}

// Paths returns every group path, sorted; parents precede their children.
// The slice is shared and must not be modified.
func (s *Snapshot) Paths() []string { return s.paths }

// Recursive returns the recursive members of a group, sorted, or nil when the
// group does not exist or has none. The slice is shared and must not be
// modified.
//
//powerapi:hotpath
func (s *Snapshot) Recursive(path string) []int { return s.members[path] }

// Targets returns one cgroup target per group, in Paths order.
func (h *Hierarchy) Targets() []target.Target {
	paths := h.Snapshot().Paths()
	out := make([]target.Target, 0, len(paths))
	for _, path := range paths {
		out = append(out, target.Cgroup(path))
	}
	return out
}

// Len returns the number of groups.
func (h *Hierarchy) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.groups)
}

// Prune is the lifecycle step dropping processes that exited. It checks the
// PIDs an Add placed since the last Prune, and the members among exited, the
// PIDs whose processes exited since the caller's last Prune; those for which
// alive returns false leave the hierarchy. It returns the removed PIDs,
// sorted. A member that was alive when checked is checked again only when
// exited names it (a move does not), so exited must list every exit since
// the caller's previous Prune. The cost is at most one alive call per
// pending and per exited PID, not one per member. Groups stay in place even
// when emptied, like a cgroup directory outliving its tasks.
func (h *Hierarchy) Prune(alive func(pid int) bool, exited []int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var removed []int
	for _, pid := range h.pending {
		pl := h.leaf[pid]
		if alive(pid) {
			pl.pending = 0
			h.leaf[pid] = pl
			continue
		}
		delete(h.groups[pl.path].members, pid)
		delete(h.leaf, pid)
		removed = append(removed, pid)
	}
	h.pending = h.pending[:0]
	for _, pid := range exited {
		pl, ok := h.leaf[pid]
		if !ok || alive(pid) {
			continue
		}
		delete(h.groups[pl.path].members, pid)
		delete(h.leaf, pid)
		removed = append(removed, pid)
	}
	if len(removed) > 0 {
		h.gen++
	}
	sort.Ints(removed)
	return removed
}

// Spec is a parsed -cgroups style specification: group path → member ids in
// declaration order.
type Spec struct {
	// Paths lists the group paths in declaration order.
	Paths []string
	// Members maps each path to its declared member ids.
	Members map[string][]int
}

// ParseSpec parses a specification like "web=1,2,3;db=4" (nested paths such
// as "web/api=1,2" are allowed; "db=" declares an empty group). The member
// numbers are opaque ids the caller maps to PIDs — the daemon uses 1-based
// workload indices.
func ParseSpec(spec string) (*Spec, error) {
	out := &Spec{Members: make(map[string][]int)}
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("cgroup: empty spec")
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		path, list, found := strings.Cut(entry, "=")
		if !found {
			return nil, fmt.Errorf("cgroup: spec entry %q is not path=members", entry)
		}
		path = strings.TrimSpace(path)
		if err := ValidatePath(path); err != nil {
			return nil, err
		}
		if _, dup := out.Members[path]; dup {
			return nil, fmt.Errorf("cgroup: group %q declared twice", path)
		}
		var members []int
		for _, field := range strings.Split(list, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			id, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("cgroup: member %q of group %q is not a number", field, path)
			}
			members = append(members, id)
		}
		out.Paths = append(out.Paths, path)
		out.Members[path] = members
	}
	if len(out.Paths) == 0 {
		return nil, errors.New("cgroup: empty spec")
	}
	return out, nil
}

// Build materialises a parsed spec into a hierarchy. mapID translates the
// spec's member ids to PIDs (pass the identity to use raw PIDs). A member
// declared in two different groups is a contradiction — Add's move semantics
// would silently relocate it to the later group — so Build rejects it.
func (s *Spec) Build(mapID func(id int) (int, error)) (*Hierarchy, error) {
	h := NewHierarchy()
	owner := make(map[int]string)
	for _, path := range s.Paths {
		if err := h.Create(path); err != nil {
			return nil, err
		}
		for _, id := range s.Members[path] {
			if prev, dup := owner[id]; dup {
				return nil, fmt.Errorf("cgroup: member %d declared in both %q and %q", id, prev, path)
			}
			owner[id] = path
			pid := id
			if mapID != nil {
				mapped, err := mapID(id)
				if err != nil {
					return nil, fmt.Errorf("cgroup: group %q: %w", path, err)
				}
				pid = mapped
			}
			if err := h.Add(path, pid); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}
