package analysis

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// buildFixhot loads the hotalloc fixture fresh and builds its program.
func buildFixhot(t *testing.T) *Program {
	t.Helper()
	l, pkgs := loadFixtures(t, "testdata/src/hotalloc")
	return BuildProgram(l, pkgs)
}

// TestGraphDeterminism pins the -graph-out contract: two completely
// independent loads of the same sources render byte-identical graphs.
func TestGraphDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildFixhot(t).WriteGraph(&a, "testdata/src"); err != nil {
		t.Fatal(err)
	}
	if err := buildFixhot(t).WriteGraph(&b, "testdata/src"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("graph output is not deterministic:\n--- first ---\n%s--- second ---\n%s", a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), "# prosper-lint interprocedural graph v1\n") {
		t.Errorf("graph output missing version header:\n%s", a.String())
	}
}

// TestGraphEdges pins the edge model on the fixhot fixture: a direct
// call edge, a continuation edge through sim.Thunk, and reachability
// that stops at undeclared entry points.
func TestGraphEdges(t *testing.T) {
	p := buildFixhot(t)

	access := p.NodeByID("(*internal/fixhot.Dev).Access")
	if access == nil {
		t.Fatal("no node for (*internal/fixhot.Dev).Access")
	}
	if access.HotReason == "" || !access.Hot() {
		t.Errorf("Access is not a hot root: reason=%q via=%v", access.HotReason, access.Via)
	}
	if access.Via != access {
		t.Errorf("root Via should be itself, got %v", access.Via)
	}

	edgeKind := func(from *FuncNode, toID string) (EdgeKind, bool) {
		for _, e := range from.Edges {
			if e.To.ID == toID {
				return e.Kind, true
			}
		}
		return 0, false
	}

	if k, ok := edgeKind(access, "(*internal/fixhot.Dev).record"); !ok || k != EdgeCall {
		t.Errorf("Access -> record: kind=%v found=%v, want call edge", k, ok)
	}
	if k, ok := edgeKind(access, "(*internal/fixhot.Dev).onDone"); !ok || k != EdgeContinuation {
		t.Errorf("Access -> onDone: kind=%v found=%v, want continuation edge", k, ok)
	}

	for _, id := range []string{"(*internal/fixhot.Dev).record", "(*internal/fixhot.Dev).onDone"} {
		n := p.NodeByID(id)
		if n == nil {
			t.Fatalf("no node for %s", id)
		}
		if !n.Hot() {
			t.Errorf("%s is not hot, want reachable from Access", id)
		} else if n.Via != access {
			t.Errorf("%s Via = %s, want %s", id, n.Via.ID, access.ID)
		}
	}

	record := p.NodeByID("(*internal/fixhot.Dev).record")
	if record == nil {
		t.Fatal("no node for (*internal/fixhot.Dev).record")
	}
	if k, ok := edgeKind(record, "(*internal/fixhot.tap).put"); !ok || k != EdgeIface {
		t.Errorf("record -> put: kind=%v found=%v, want iface edge (interface fan-out)", k, ok)
	}
	if put := p.NodeByID("(*internal/fixhot.tap).put"); put == nil || !put.Hot() {
		t.Error("(*internal/fixhot.tap).put should be hot through the interface call")
	}

	for _, id := range []string{"(*internal/fixhot.Dev).cold", "(*internal/fixhot.Dev).ColdEntry"} {
		n := p.NodeByID(id)
		if n == nil {
			t.Fatalf("no node for %s", id)
		}
		if n.Hot() {
			t.Errorf("%s is hot via %s, want cold (reachability must stop at non-root entry points)", id, n.Via.ID)
		}
	}
}

// TestOwnershipMapRows pins the aggregated write inventory on the
// ownership fixture pair: same-domain writes are inventoried as "own",
// cross-domain writes as "cross".
func TestOwnershipMapRows(t *testing.T) {
	l, pkgs := loadFixtures(t, "testdata/src/ownership/fixowner", "testdata/src/ownership/fixwriter")
	p := BuildProgram(l, pkgs)

	rows := p.OwnershipMap()
	byKey := make(map[string]OwnershipRow)
	for _, r := range rows {
		byKey[r.Writer+"->"+r.State] = r
	}

	// The map inventories writes from sim-deterministic packages only:
	// fixowner (a synthetic non-sim domain) contributes no rows, while
	// fixwriter — posing as internal/trace — contributes both its own
	// writes and the cross-domain ones.
	if r, ok := byKey["trace->trace.Cursor.pos"]; !ok || r.Status != "own" {
		t.Errorf("trace's own Cursor.pos write: %+v (found=%v), want status own", r, ok)
	}
	cross, ok := byKey["trace->fixowner.Table.Head"]
	if !ok || cross.Status != "cross" {
		t.Errorf("trace -> Table.Head: %+v (found=%v), want status cross", cross, ok)
	}
	// Step's two Head writes plus Reset's suppressed one: the inventory
	// counts sites regardless of directive suppression (the map is a
	// factual record; suppression only affects findings).
	if ok && cross.Sites < 2 {
		t.Errorf("trace -> Table.Head sites = %d, want >= 2", cross.Sites)
	}
	if r, ok := byKey["trace->fixowner.var Epoch"]; !ok || r.Status != "cross" {
		t.Errorf("trace -> var Epoch: %+v (found=%v), want status cross", r, ok)
	}
}

// TestLoaderUnresolvedImport pins the Loader's failure mode on a
// module-local import that maps to no directory: a descriptive error,
// not a panic or a silent nil package.
func TestLoaderUnresolvedImport(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir("testdata/src/badimport", "prosper/internal/badimport")
	if err == nil {
		t.Fatal("LoadDir succeeded on a package with an unresolvable module-local import")
	}
	if !strings.Contains(err.Error(), "prosper/internal/definitely/missing") {
		t.Errorf("error does not name the missing import path: %v", err)
	}
}

// NodeByID returns the named node, or nil.
func (p *Program) NodeByID(id string) *FuncNode {
	i := sort.Search(len(p.Nodes), func(i int) bool { return p.Nodes[i].ID >= id })
	if i < len(p.Nodes) && p.Nodes[i].ID == id {
		return p.Nodes[i]
	}
	return nil
}
