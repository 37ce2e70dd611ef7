package main

import (
	"fmt"
	"math"
	"math/rand"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// Every input of the benchmark is drawn here from the --seed argument;
// the daemon only ever sees the requests built from these plans.

// podStride offsets the node identifiers of disjoint grid pods.
const podStride = 1000

// benchNet is the link-delay envelope trajand uses by default
// (-lmin 1 -lmax 1).
var benchNet = model.UnitDelayNetwork()

// subSeed derives an independent stream for one part of a workload, so
// adding a part never shifts the draws of another.
func subSeed(seed int64, part string) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(part); i++ {
		h = (h ^ uint64(part[i])) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// flowGen draws EF flows one at a time over a route generator (BFS
// routes on grid pods as in workload.Mesh, or on a Clos fabric). A draw
// is kept only when it respects Assumption 1 against the flows kept so
// far and the path-utilization cap: for every flow, the utilization
// summed over all flows sharing a node with it stays below umax, which
// keeps every trajectory busy period finite.
type flowGen struct {
	rng   *rand.Rand
	route func(pod int) (model.Path, error)
	pods  int
	umax  float64
	// share is every flow's utilization (cost/period).
	share    float64
	fs       *model.FlowSet
	util     []float64
	pathUtil []float64
	byNode   map[model.NodeID][]int
	stamp    []int
	epoch    int
}

// newGridGen routes between random nodes of rows×cols grids, one grid
// per pod, pod p's node identifiers offset by p·podStride; every route
// is exactly hops links long, or of any length when hops is 0. Every
// flow takes utilization share.
func newGridGen(rng *rand.Rand, rows, cols, pods int, umax, share float64, hops int) *flowGen {
	grid := model.GridTopology(rows, cols)
	n := rows * cols
	g := &flowGen{rng: rng, pods: pods, umax: umax, share: share, byNode: make(map[model.NodeID][]int)}
	g.route = func(pod int) (model.Path, error) {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		if hops > 0 {
			var ends []int
			for v := 0; v < n; v++ {
				if d := abs(v/cols-src/cols) + abs(v%cols-src%cols); d == hops {
					ends = append(ends, v)
				}
			}
			if len(ends) == 0 {
				return nil, fmt.Errorf("perfbench: no node %d hops from %d", hops, src)
			}
			dst = ends[rng.Intn(len(ends))]
		}
		path, err := grid.Route(model.NodeID(src), model.NodeID(dst))
		for k := range path {
			path[k] += model.NodeID(pod * podStride)
		}
		return path, err
	}
	return g
}

// touching lists the kept flows sharing a node with path.
func (g *flowGen) touching(path model.Path) []int {
	g.epoch++
	for len(g.stamp) < len(g.util) {
		g.stamp = append(g.stamp, 0)
	}
	var out []int
	for _, h := range path {
		for _, j := range g.byNode[h] {
			if g.stamp[j] != g.epoch {
				g.stamp[j] = g.epoch
				out = append(out, j)
			}
		}
	}
	return out
}

// headroom is the largest utilization a new flow on path may take.
func (g *flowGen) headroom(path model.Path) float64 {
	own, worst := g.umax, g.umax
	for _, j := range g.touching(path) {
		own -= g.util[j]
		worst = min(worst, g.umax-g.pathUtil[j])
	}
	return min(own, worst)
}

// draw proposes one flow in pod (not kept). ok is false when the draw
// has no headroom or breaks Assumption 1; callers simply draw again.
func (g *flowGen) draw(name string, pod int) (f *model.Flow, ok bool) {
	path, err := g.route(pod)
	if err != nil {
		return nil, false
	}
	cost := model.Time(1 + g.rng.Intn(4))
	jitter := model.Time(g.rng.Intn(int(2*cost) + 1))
	period := model.Time(math.Ceil(float64(cost) / g.share))
	if g.share > g.headroom(path) || period > 1<<20 {
		return nil, false
	}
	f = model.UniformFlow(name, period, jitter, 0, cost, path...)
	if g.fs != nil {
		if _, err := g.fs.WithFlowAdded(f); err != nil {
			return nil, false
		}
	}
	return f, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// keep adds f to the generated set.
func (g *flowGen) keep(f *model.Flow) error {
	var err error
	if g.fs == nil {
		g.fs, err = model.NewFlowSet(benchNet, []*model.Flow{f})
	} else {
		g.fs, err = g.fs.WithFlowAdded(f)
	}
	if err != nil {
		return err
	}
	u := float64(f.Cost[0]) / float64(f.Period)
	own := u
	for _, j := range g.touching(f.Path) {
		g.pathUtil[j] += u
		own += g.util[j]
	}
	idx := len(g.util)
	g.util = append(g.util, u)
	g.pathUtil = append(g.pathUtil, own)
	for _, h := range f.Path {
		g.byNode[h] = append(g.byNode[h], idx)
	}
	return nil
}

// fill keeps drawing until the set holds n flows, spread round-robin
// over the pods.
func (g *flowGen) fill(prefix string, n int) error {
	for tries := 0; g.size() < n; tries++ {
		if tries > 200*n {
			return fmt.Errorf("perfbench: grid generator stalled at %d of %d flows", g.size(), n)
		}
		k := g.size()
		if f, ok := g.draw(fmt.Sprintf("%s%d", prefix, k), k%g.pods); ok {
			if err := g.keep(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *flowGen) size() int { return len(g.util) }

// components counts the connected components of the interference graph
// (flows sharing a node).
func components(fs *model.FlowSet) int {
	parent := make([]int, fs.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := make(map[model.NodeID]int)
	for i, f := range fs.Flows {
		for _, h := range f.Path {
			if j, ok := owner[h]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[h] = i
			}
		}
	}
	n := 0
	for i := range parent {
		if find(i) == i {
			n++
		}
	}
	return n
}

// withDeadlines returns a copy of fs whose flows carry deadline
// bound + bound/2 + 2 — loose enough that one transient flow rarely
// breaks a standing one, tight enough that the verdict reads them.
func withDeadlines(fs *model.FlowSet, bounds []model.Time) (*model.FlowSet, error) {
	flows := make([]*model.Flow, fs.N())
	for i, f := range fs.Flows {
		c := f.Clone()
		c.Deadline = bounds[i] + bounds[i]/2 + 2
		flows[i] = c
	}
	return model.NewFlowSet(fs.Net, flows)
}

// coldBounds is the oracle: a cold trajectory analysis with the daemon's
// default options and no tracer.
func coldBounds(fs *model.FlowSet) ([]model.Time, error) {
	res, err := trajectory.Analyze(fs, trajectory.Options{})
	if err != nil {
		return nil, err
	}
	return res.Bounds, nil
}

// verdictOf summarizes bounds the way the admission layer does.
func verdictOf(flows []*model.Flow, bounds []model.Time) (feasible bool, minSlack model.Time) {
	feasible, minSlack = true, model.TimeInfinity
	for i, f := range flows {
		if f.Deadline <= 0 {
			continue
		}
		if s := f.Deadline - bounds[i]; s < minSlack {
			minSlack = s
		}
		if bounds[i] > f.Deadline {
			feasible = false
		}
	}
	return feasible, minSlack
}

// ---- churn-journal ----

// churnRound is one transient flow's round trip through a tenant: probe
// X, admit X, read bounds, renegotiate to X2, release. Whether the admit
// and the renegotiation are accepted is fixed by construction (the
// deadlines are set from the oracle's bounds), so every seed yields the
// same mix of outcomes.
type churnRound struct {
	X, X2   *model.Flow
	AdmitOK bool
	RenegOK bool
	// BoundsX and BoundsX2 are the oracle bounds of standing+X and
	// standing+X2 (the transient flow last).
	BoundsX, BoundsX2 []model.Time
	SlackX, SlackX2   model.Time
}

// churnTenant is one tenant's seeded plan.
type churnTenant struct {
	Name     string
	Standing *model.FlowSet
	// BuildBounds[k] is the oracle bound vector after the k-th standing
	// admit (prefix k+1 of Standing).
	BuildBounds [][]model.Time
	Bounds      []model.Time // oracle bounds of Standing
	Rounds      []churnRound
}

// churnStanding and churnPool size the churn-journal tenants.
const (
	churnStanding = 100
	churnPool     = 48
)

// planChurnTenant draws a tenant: a standing set of churnStanding flows
// with 4-hop routes on a 6×6 grid and churnPool transient rounds. Every
// flow takes the same utilization share, which keeps the cost of a
// warm re-analysis nearly the same from seed to seed. Round k is
// rejected at admission when k%4 == 3; admitted rounds alternate
// accepted and rejected renegotiations.
func planChurnTenant(seed int64, name string) (*churnTenant, error) {
	rng := subSeed(seed, "churn/"+name)
	g := newGridGen(rng, 6, 6, 1, 0.55, 0.003, 4)
	if err := g.fill("s", churnStanding); err != nil {
		return nil, err
	}
	b0, err := coldBounds(g.fs)
	if err != nil {
		return nil, fmt.Errorf("perfbench: standing set of %s: %w", name, err)
	}
	standing, err := withDeadlines(g.fs, b0)
	if err != nil {
		return nil, err
	}
	g.fs = standing
	t := &churnTenant{Name: name, Standing: standing, Bounds: b0}
	for k := 1; k <= standing.N(); k++ {
		pre, err := model.NewFlowSet(benchNet, standing.Flows[:k])
		if err != nil {
			return nil, err
		}
		b, err := coldBounds(pre)
		if err != nil {
			return nil, err
		}
		if ok, _ := verdictOf(pre.Flows, b); !ok {
			return nil, fmt.Errorf("perfbench: %s standing prefix %d is infeasible", name, k)
		}
		t.BuildBounds = append(t.BuildBounds, b)
	}
	admitted := 0
	for k := 0; k < churnPool; k++ {
		r := churnRound{AdmitOK: k%4 != 3}
		if r.AdmitOK {
			r.RenegOK = admitted%2 == 0
			admitted++
		}
		if err := t.drawRound(g, k, &r); err != nil {
			return nil, err
		}
		t.Rounds = append(t.Rounds, r)
	}
	return t, nil
}

// drawRound draws transient flow k until its designed outcomes hold.
func (t *churnTenant) drawRound(g *flowGen, k int, r *churnRound) error {
	name := fmt.Sprintf("x%d", k)
	for tries := 0; tries < 500; tries++ {
		x, ok := g.draw(name, 0)
		if !ok {
			continue
		}
		bx, slackX, ok := t.settle(x, r.AdmitOK, g.rng)
		if !ok {
			continue
		}
		r.X, r.BoundsX, r.SlackX = x, bx, slackX
		if !r.AdmitOK {
			return nil
		}
		// The renegotiation shortens or stretches the period by up to 20%
		// on the same path, within the same utilization cap.
		x2 := x.Clone()
		x2.Period = model.Time(math.Ceil(float64(x.Period) * (0.8 + 0.4*g.rng.Float64())))
		if float64(x2.Cost[0])/float64(x2.Period) > g.headroom(x2.Path) {
			continue
		}
		bx2, slackX2, ok := t.settle(x2, r.RenegOK, g.rng)
		if !ok {
			continue
		}
		r.X2, r.BoundsX2, r.SlackX2 = x2, bx2, slackX2
		return nil
	}
	return fmt.Errorf("perfbench: %s: could not draw transient flow %d", t.Name, k)
}

// settle sets x's deadline so that admitting x into the standing set is
// accepted (wantOK) or refused for x's own deadline miss, and returns
// the oracle bounds and slack of standing+x. ok is false when standing
// flows would break either way or the analysis fails.
func (t *churnTenant) settle(x *model.Flow, wantOK bool, rng *rand.Rand) (bounds []model.Time, slack model.Time, ok bool) {
	fs, err := t.Standing.WithFlowAdded(x)
	if err != nil {
		return nil, 0, false
	}
	bounds, err = coldBounds(fs)
	if err != nil {
		return nil, 0, false
	}
	n := fs.N() - 1
	if feasible, _ := verdictOf(fs.Flows[:n], bounds[:n]); !feasible {
		return nil, 0, false
	}
	bx := bounds[n]
	margin := model.Time(1 + rng.Intn(int(bx/4)+1))
	if wantOK {
		x.Deadline = bx + margin
	} else {
		x.Deadline = bx - margin
		if x.Deadline < 1 {
			return nil, 0, false
		}
	}
	fs.Flows[n].Deadline = x.Deadline
	_, slack = verdictOf(fs.Flows, bounds)
	return bounds, slack, true
}

// ---- route-clos ----

// closSpec is the daemon topology of route-clos: 4 spines, 4 leaves and
// 8 hosts per leaf, so every east-west pair has 4 equal-cost paths.
const (
	closSpines, closLeaves, closHosts = 4, 4, 8
	closSpec                          = "clos:4x4x8"
	closRouteK                        = 4 // trajand's default -route-k
	closPool                          = 48
	closBackground                    = 48
)

// closTransient is one client's transient flow: admitted with
// route=auto, renegotiated with a tightened deadline (which forces a
// re-route off a loaded spine or a refusal), then released.
type closTransient struct {
	Flow *model.Flow // submitted contract; the path interior is ignored
	// Probes are the contract on its shortest path (through spine 0)
	// and on its last k-shortest alternative, for what-if probes.
	Probes []*model.Flow
	Tight  model.Time // renegotiated deadline
}

// closPlan is the seeded route-clos input.
type closPlan struct {
	Preload *model.FlowSet
	Clients [][]closTransient
}

// planClos draws the preloaded background — shortest paths, which all
// cross spine 0 (see workload.ClosTopology) — and one transient pool
// per client.
func planClos(seed int64, clients int) (*closPlan, error) {
	topo, err := workload.ClosTopology(closSpines, closLeaves, closHosts)
	if err != nil {
		return nil, err
	}
	rng := subSeed(seed, "clos")
	g := &flowGen{rng: rng, pods: 1, umax: 0.5, share: 0.006, byNode: make(map[model.NodeID][]int)}
	// Background runs within the leaf pairs {0,1} and {2,3}; transients
	// cross between them. A transient on another spine therefore never
	// re-enters a background path, which would break Assumption 1.
	g.route = func(int) (model.Path, error) {
		sl := rng.Intn(closLeaves)
		return topo.Route(workload.ClosHost(sl, rng.Intn(closHosts)), workload.ClosHost(sl^1, rng.Intn(closHosts)))
	}
	if err := g.fill("bg", closBackground); err != nil {
		return nil, err
	}
	b, err := coldBounds(g.fs)
	if err != nil {
		return nil, fmt.Errorf("perfbench: clos preload: %w", err)
	}
	pre, err := withDeadlines(g.fs, b)
	if err != nil {
		return nil, err
	}
	p := &closPlan{Preload: pre}
	for c := 0; c < clients; c++ {
		crng := subSeed(seed, fmt.Sprintf("clos/client%d", c))
		var pool []closTransient
		for k := 0; len(pool) < closPool; k++ {
			if k > 50*closPool {
				return nil, fmt.Errorf("perfbench: clos client %d: could not draw transient flows", c)
			}
			// Client c crosses between leaves c%2 and 2+c%2, so two
			// clients' transients share spines but never a leaf.
			sl, dl := c%2, 2+c%2
			if crng.Intn(2) == 1 {
				sl, dl = dl, sl
			}
			src := workload.ClosHost(sl, crng.Intn(closHosts))
			dst := workload.ClosHost(dl, crng.Intn(closHosts))
			cost := model.Time(1 + crng.Intn(2))
			period := cost * model.Time(130+crng.Intn(40))
			f := model.UniformFlow(fmt.Sprintf("c%d-%d", c, len(pool)), period, 0, 0, cost, src, dst)
			lo, hi, ok := candidateBounds(topo, pre, f)
			if !ok {
				continue
			}
			// Any candidate path meets the admit deadline with room for
			// the other clients' transients; the tightened deadline only
			// the best path meets against the preload alone.
			f.Deadline = 2*hi + 2
			paths, err := topo.KShortestPaths(src, dst, closRouteK)
			if err != nil {
				return nil, err
			}
			tr := closTransient{Flow: f, Tight: lo + 1}
			for _, p := range []model.Path{paths[0], paths[len(paths)-1]} {
				tr.Probes = append(tr.Probes, model.UniformFlow(f.Name, period, 0, f.Deadline, cost, p...))
			}
			pool = append(pool, tr)
		}
		p.Clients = append(p.Clients, pool)
	}
	return p, nil
}

// candidateBounds returns the lowest and highest bound f gets on those
// of its route=auto candidate paths that can join the preload (a path
// that crosses a preloaded flow twice breaks Assumption 1 and is
// refused as invalid). ok is false when fewer than two candidates are
// valid or one breaks a preloaded deadline.
func candidateBounds(topo *model.Topology, pre *model.FlowSet, f *model.Flow) (lo, hi model.Time, ok bool) {
	cands, err := feasibility.RouteCandidates(topo, f, closRouteK)
	if err != nil {
		return 0, 0, false
	}
	lo = model.TimeInfinity
	valid := 0
	for _, cf := range cands {
		fs, err := pre.WithFlowAdded(cf)
		if err != nil {
			continue
		}
		b, err := coldBounds(fs)
		if err != nil {
			return 0, 0, false
		}
		n := fs.N() - 1
		if feasible, _ := verdictOf(fs.Flows[:n], b[:n]); !feasible {
			return 0, 0, false
		}
		lo, hi = min(lo, b[n]), max(hi, b[n])
		valid++
	}
	return lo, hi, valid >= 2
}

// ---- analyze-cold ----

// coldSet is one flow set of the analyze-cold suite.
type coldSet struct {
	Name  string
	Flows []*model.Flow
	Probe int // flow index of the single-flow probe
}

// coldSizes are the suite's set sizes; each appears once connected and
// once split into disjoint pods.
var coldSizes = []int{64, 128, 256, 512}

// planCold draws the analyze-cold suite: for every size, one set whose
// interference graph is a single connected component and one split
// into pods of 32 flows on disjoint grids.
func planCold(seed int64) ([]coldSet, error) {
	var out []coldSet
	for _, n := range coldSizes {
		for _, pods := range []int{1, n / 32} {
			name := fmt.Sprintf("conn%d", n)
			if pods > 1 {
				name = fmt.Sprintf("pods%d", n)
			}
			rng := subSeed(seed, "cold/"+name)
			// Grid side grows with the flows per pod, so path lengths and
			// per-node sharing stay comparable across sizes.
			side := 4
			for side*side*3 < n/pods {
				side++
			}
			g := newGridGen(rng, side, side, pods, 0.5, 0.4/float64(n/pods), 0)
			if err := g.fill("f", n); err != nil {
				return nil, fmt.Errorf("perfbench: cold set %s: %w", name, err)
			}
			if c := components(g.fs); (pods == 1 && c != 1) || (pods > 1 && c < pods) {
				return nil, fmt.Errorf("perfbench: cold set %s has %d interference components", name, c)
			}
			out = append(out, coldSet{Name: name, Flows: g.fs.Flows, Probe: rng.Intn(n)})
		}
	}
	return out, nil
}
