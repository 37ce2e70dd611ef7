package model

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestNewFlowSetValidation(t *testing.T) {
	net := UnitDelayNetwork()
	if fs, err := NewFlowSet(net, nil); err != nil || fs.N() != 0 {
		t.Errorf("empty flow set: %v", err)
	}
	if _, err := NewFlowSet(Network{Lmin: 2, Lmax: 1}, []*Flow{flowOn("a", 1, 2)}); err == nil {
		t.Error("Lmax < Lmin accepted")
	}
	dup := []*Flow{flowOn("a", 1, 2), flowOn("a", 3, 4)}
	if _, err := NewFlowSet(net, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
	bad := []*Flow{flowOn("a", 1, 2, 3, 4, 5), flowOn("b", 2, 9, 4)}
	if _, err := NewFlowSet(net, bad); err == nil || !strings.Contains(err.Error(), "assumption 1") {
		t.Errorf("assumption-1 violation: %v", err)
	}
}

func TestFlowSetInterferers(t *testing.T) {
	fs := PaperExample()
	got := fs.Interferers(0) // τ1 meets τ3, τ4, τ5
	want := []int{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("interferers of τ1 = %v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("interferers of τ1 = %v, want %v", got, want)
		}
	}
	got = fs.Interferers(1) // τ2 meets τ3, τ4, τ5 but not τ1
	if len(got) != 3 || got[0] != 2 {
		t.Errorf("interferers of τ2 = %v", got)
	}
}

func TestFlowSetNodes(t *testing.T) {
	fs := PaperExample()
	nodes := fs.Nodes()
	if len(nodes) != 11 {
		t.Fatalf("got %d nodes, want 11", len(nodes))
	}
	for k := 1; k < len(nodes); k++ {
		if nodes[k] <= nodes[k-1] {
			t.Fatal("nodes not sorted")
		}
	}
	if nodes[0] != 1 || nodes[10] != 11 {
		t.Errorf("node range %v", nodes)
	}
}

func TestFlowSetFlowsAt(t *testing.T) {
	fs := PaperExample()
	at3 := fs.FlowsAt(3) // τ1, τ3, τ4, τ5
	if len(at3) != 4 || at3[0] != 0 || at3[1] != 2 {
		t.Errorf("FlowsAt(3) = %v", at3)
	}
	at9 := fs.FlowsAt(9) // τ2 only
	if len(at9) != 1 || at9[0] != 1 {
		t.Errorf("FlowsAt(9) = %v", at9)
	}
}

// TestSmin pins Section-5 values: τ3's earliest arrival at node 7 is
// three nodes of processing plus three links.
func TestSmin(t *testing.T) {
	fs := PaperExample()
	cases := []struct {
		flow int
		node NodeID
		want Time
	}{
		{0, 1, 0},  // source
		{0, 3, 5},  // C+Lmin
		{0, 5, 15}, // three hops
		{2, 7, 15}, // τ3 at node 7
		{2, 10, 20},
		{1, 7, 10}, // τ2 at node 7 (via 9, 10)
	}
	for _, c := range cases {
		got, err := fs.Smin(c.flow, c.node)
		if err != nil || got != c.want {
			t.Errorf("Smin(%d,%d) = %d, %v, want %d", c.flow, c.node, got, err, c.want)
		}
		k := fs.PathIndex(c.flow, c.node)
		if at := fs.SminAt(c.flow, k); at != c.want {
			t.Errorf("SminAt(%d,%d) = %d, want %d", c.flow, k, at, c.want)
		}
	}
}

func TestSminErrorsOffPath(t *testing.T) {
	fs := PaperExample()
	if _, err := fs.Smin(0, 9); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Smin off-path error = %v, want ErrInvalidConfig", err)
	}
	if _, err := fs.M(0, 9); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("M off-path error = %v, want ErrInvalidConfig", err)
	}
	if _, err := fs.MinArrival(0, 9); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("MinArrival off-path error = %v, want ErrInvalidConfig", err)
	}
}

// TestM pins M^h_i on the example: every predecessor node contributes
// the minimum same-direction cost (4) plus Lmin (1).
func TestM(t *testing.T) {
	fs := PaperExample()
	cases := []struct {
		flow int
		node NodeID
		want Time
	}{
		{0, 1, 0},   // no predecessors
		{0, 3, 5},   // node 1: min cost 4 + Lmin
		{2, 7, 15},  // nodes 2,3,4
		{2, 10, 20}, // nodes 2,3,4,7
		{1, 10, 5},  // node 9
	}
	for _, c := range cases {
		got, err := fs.M(c.flow, c.node)
		if err != nil || got != c.want {
			t.Errorf("M(%d,%d) = %d, %v, want %d", c.flow, c.node, got, err, c.want)
		}
	}
}

// TestMUsesOnlyVisitingFlows: the minimum in M ranges over flows that
// actually visit the node — a cheaper flow elsewhere must not shrink it.
func TestMUsesOnlyVisitingFlows(t *testing.T) {
	fi := &Flow{Name: "i", Period: 36, Path: Path{1, 2, 3}, Cost: []Time{6, 6, 6}, parent: -1}
	// Same direction, joins at node 2 with a smaller cost there.
	fj := &Flow{Name: "j", Period: 36, Path: Path{2, 3}, Cost: []Time{2, 2}, parent: -1}
	fs := MustNewFlowSet(UnitDelayNetwork(), []*Flow{fi, fj})
	// M^3_i: node 1 contributes min over visitors of node 1 = 6 (only i),
	// node 2 contributes min(6, 2) = 2; plus Lmin each.
	if got, err := fs.M(0, 3); err != nil || got != (6+1)+(2+1) {
		t.Errorf("M = %d, %v, want 10", got, err)
	}
}

func TestMaxSameDirCost(t *testing.T) {
	fs := PaperExample()
	// Node 7 on P3: τ2 crosses in reverse, so only τ3/τ4/τ5 (cost 4) count.
	if got := fs.MaxSameDirCost(2, 7); got != 4 {
		t.Errorf("MaxSameDirCost(τ3,7) = %d", got)
	}
	// A heavier same-direction flow raises the max.
	fi := flowOn("i", 1, 2, 3)
	fj := &Flow{Name: "j", Period: 36, Path: Path{2, 3}, Cost: []Time{9, 9}, parent: -1}
	fs2 := MustNewFlowSet(UnitDelayNetwork(), []*Flow{fi, fj})
	if got := fs2.MaxSameDirCost(0, 2); got != 9 {
		t.Errorf("MaxSameDirCost = %d, want 9", got)
	}
	// A reverse-direction flow does not.
	fk := &Flow{Name: "k", Period: 36, Path: Path{3, 2}, Cost: []Time{9, 9}, parent: -1}
	fs3 := MustNewFlowSet(UnitDelayNetwork(), []*Flow{fi, fk})
	if got := fs3.MaxSameDirCost(0, 2); got != 4 {
		t.Errorf("MaxSameDirCost with reverse flow = %d, want 4", got)
	}
}

func TestUtilization(t *testing.T) {
	fs := PaperExample()
	// Node 3 carries τ1, τ3, τ4, τ5: 4·4/36.
	want := 16.0 / 36.0
	if got := fs.TotalUtilizationAt(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("utilization(3) = %f, want %f", got, want)
	}
	if got := fs.MaxUtilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("max utilization = %f, want %f", got, want)
	}
}

func TestMinArrival(t *testing.T) {
	fs := PaperExample()
	if got, err := fs.MinArrival(0, 3); err != nil || got != 5+4 {
		t.Errorf("MinArrival = %d, %v", got, err)
	}
}

func TestMustNewFlowSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewFlowSet did not panic on invalid input")
		}
	}()
	MustNewFlowSet(UnitDelayNetwork(), []*Flow{flowOn("a", 1, 2), flowOn("a", 3, 4)})
}
