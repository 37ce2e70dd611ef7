package trajectory

import (
	"testing"

	"trajan/internal/model"
)

// denseRel is the dense counterpart of model.PathRelation for a prefix
// view, reporting the anchors as path POSITIONS instead of node ids —
// the coordinates buildAll's views store. Field-by-field it mirrors
// FlowSet.PrefixRelation:
//
//	firstJIonI/firstJIonJ — position of first_{j,i} on Pi / on Pj
//	firstIJonI/firstIJonJ — position of first_{i,j} on Pi / on Pj
//	csj                   — C^{slow_{j,i}}_j over the prefix
//	sameDir               — first_{j,i} == first_{i,j}
//
// It is a per-(i, plen, j) test oracle: TestDenseRelMatchesPrefixRelation
// pins it to FlowSet.PrefixRelation, and TestBuildAllMatchesDenseRel
// pins buildAll's per-interferer anchors to it.
type denseRel struct {
	intersects bool
	sameDir    bool
	csj        model.Time
	firstJIonI int32
	firstJIonJ int32
	firstIJonI int32
	firstIJonJ int32
}

// prefixRel computes the relation of flow j against the prefix of flow
// i's path of length plen, mirroring FlowSet.PrefixRelation's scan
// order (Pj in j's traversal order for the j-side anchors, the prefix
// in i's order for the i-side ones) so every anchor — including the
// first-maximum slow-node tie-break — is bit-identical.
func (tp *denseTopo) prefixRel(fs *model.FlowSet, i, plen, j int) denseRel {
	var r denseRel
	posI := tp.pos[i]
	costJ := fs.Flows[j].Cost
	var dFirstJI int32 = -1
	for k, d := range tp.dpath[j] {
		ki := posI[d]
		if ki < 0 || int(ki) >= plen {
			continue
		}
		if !r.intersects {
			r.intersects = true
			dFirstJI = d
			r.firstJIonJ = int32(k)
			r.firstJIonI = ki
			r.csj = costJ[k]
		} else if costJ[k] > r.csj {
			r.csj = costJ[k]
		}
	}
	if !r.intersects {
		return r
	}
	posJ := tp.pos[j]
	for k, d := range tp.dpath[i][:plen] {
		if kj := posJ[d]; kj >= 0 {
			r.firstIJonI = int32(k)
			r.firstIJonJ = kj
			r.sameDir = d == dFirstJI
			break
		}
	}
	return r
}

// costOnView returns C of flow j at the m-th node of flow i's path (0
// when j does not visit it) — the dense counterpart of CostOf.
func (tp *denseTopo) costOnView(fs *model.FlowSet, j, i, m int) model.Time {
	if p := tp.pos[j][tp.dpath[i][m]]; p >= 0 {
		return fs.Flows[j].Cost[p]
	}
	return 0
}

// TestDenseRelMatchesPrefixRelation differentially pins the dense
// positional prefix relation (denseTopo.prefixRel, costOnView) against
// the reference model.FlowSet.PrefixRelation and CostOf over every
// (i, plen, j) triple of the determinism corpus: the positional anchors
// must name exactly the reference's node-id anchors.
func TestDenseRelMatchesPrefixRelation(t *testing.T) {
	for si, fs := range determinismSets(t) {
		tp := buildTopo(fs)
		n := len(fs.Flows)
		for i := 0; i < n; i++ {
			pi := fs.Flows[i].Path
			L := len(pi)
			for plen := 1; plen <= L; plen++ {
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					ref := fs.PrefixRelation(i, plen, j)
					dr := tp.prefixRel(fs, i, plen, j)
					if dr.intersects != ref.Intersects {
						t.Fatalf("set %d (i=%d plen=%d j=%d): intersects %v ≠ ref %v",
							si, i, plen, j, dr.intersects, ref.Intersects)
					}
					pj := fs.Flows[j].Path
					if dr.intersects {
						if pj[dr.firstJIonJ] != ref.FirstJI || pi[dr.firstJIonI] != ref.FirstJI {
							t.Errorf("set %d (i=%d plen=%d j=%d): firstJI pos (%d on Pj, %d on Pi) ≠ ref node %d",
								si, i, plen, j, dr.firstJIonJ, dr.firstJIonI, ref.FirstJI)
						}
						if pi[dr.firstIJonI] != ref.FirstIJ || pj[dr.firstIJonJ] != ref.FirstIJ {
							t.Errorf("set %d (i=%d plen=%d j=%d): firstIJ pos (%d on Pi, %d on Pj) ≠ ref node %d",
								si, i, plen, j, dr.firstIJonI, dr.firstIJonJ, ref.FirstIJ)
						}
						if dr.csj != ref.CSlowJI {
							t.Errorf("set %d (i=%d plen=%d j=%d): csj %d ≠ ref %d",
								si, i, plen, j, dr.csj, ref.CSlowJI)
						}
						if dr.sameDir != ref.SameDirection {
							t.Errorf("set %d (i=%d plen=%d j=%d): sameDir %v ≠ ref %v",
								si, i, plen, j, dr.sameDir, ref.SameDirection)
						}
					}
				}
			}
			for j := 0; j < n; j++ {
				for m := 0; m < L; m++ {
					if got, want := tp.costOnView(fs, j, i, m), fs.CostOf(j, pi[m]); got != want {
						t.Errorf("set %d (i=%d j=%d m=%d): costOnView %d ≠ CostOf %d", si, i, j, m, got, want)
					}
				}
			}
		}
	}
}

// TestBuildAllMatchesDenseRel pins the views buildAll produces against
// the per-pair oracle: the plen-p view of flow i lists exactly the
// flows prefixRel reports as intersecting, in ascending order, with
// prefixRel's anchors as entry ids, its charge and its direction; and
// its read set is the first-occurrence dedup of the (iEnt, jEnt) pairs.
func TestBuildAllMatchesDenseRel(t *testing.T) {
	for si, fs := range append(determinismSets(t), longPathSet(t, false)) {
		a, err := NewAnalyzer(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tp := a.ensureTopo()
		for i, f := range fs.Flows {
			a.buildAll(i)
			baseI := int32(a.entryBase[i])
			for plen := 1; plen <= len(f.Path); plen++ {
				vc := a.slot(i, plen).vc
				if vc == nil || vc.flow != i || vc.plen != plen {
					t.Fatalf("set %d (i=%d plen=%d): view missing or mislabeled", si, i, plen)
				}
				x := 0
				for j := range fs.Flows {
					if j == i {
						continue
					}
					dr := tp.prefixRel(fs, i, plen, j)
					if !dr.intersects {
						continue
					}
					if x >= len(vc.jflow) || vc.jflow[x] != int32(j) {
						t.Fatalf("set %d (i=%d plen=%d): interferer %d is not flow %d", si, i, plen, x, j)
					}
					if vc.iEnt[x] != baseI+dr.firstJIonI || vc.jEnt[x] != int32(a.entryBase[j])+dr.firstIJonJ ||
						vc.csj[x] != dr.csj || vc.sameDir[x] != dr.sameDir {
						t.Errorf("set %d (i=%d plen=%d j=%d): view (iEnt %d jEnt %d csj %d sd %v) ≠ prefixRel %+v",
							si, i, plen, j, vc.iEnt[x], vc.jEnt[x], vc.csj[x], vc.sameDir[x], dr)
					}
					x++
				}
				if x != len(vc.jflow) {
					t.Fatalf("set %d (i=%d plen=%d): %d interferers, prefixRel finds %d", si, i, plen, len(vc.jflow), x)
				}
				var want []int32
				seen := map[int32]bool{}
				for x := range vc.jflow {
					for _, e := range []int32{vc.iEnt[x], vc.jEnt[x]} {
						if !seen[e] {
							seen[e] = true
							want = append(want, e)
						}
					}
				}
				if len(want) != len(vc.readIDs) {
					t.Fatalf("set %d (i=%d plen=%d): read set %v, want %v", si, i, plen, vc.readIDs, want)
				}
				for k := range want {
					if vc.readIDs[k] != want[k] {
						t.Fatalf("set %d (i=%d plen=%d): read set %v, want %v", si, i, plen, vc.readIDs, want)
					}
				}
			}
		}
	}
}
