//! Tentative-tree wire-length estimation (§3.2).
//!
//! "The shortest paths from the driving terminal vertex to all other
//! terminals are first obtained with Dijkstra's shortest-path algorithm.
//! The union of all paths is the tentative tree." The tentative tree's
//! total length is the net's wire-length estimate `CL(n)` feeding the
//! delay model; re-running it *assuming the deletion of `e`* yields the
//! hypothetical lengths behind `LM(e, P)`. [`HypKernel`] answers those
//! re-runs from one base tree per graph state, bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::RoutingGraph;

/// Min-heap entry with a total-order `f64` key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    vert: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties by vertex for determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vert.cmp(&self.vert))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a tentative-tree computation.
#[derive(Debug, Clone, PartialEq)]
pub struct TentativeTree {
    /// Total length of the union of driver-to-sink shortest paths, in µm.
    pub length_um: f64,
    /// Edge indices of the union.
    pub edges: Vec<u32>,
}

/// Marks an absent vertex or edge in the index arrays below.
const NONE: u32 = u32::MAX;

/// Dijkstra from the driver over alive edges other than `skip`: the
/// distance of every vertex and the edge that *first* set it (strict
/// `<`, pop order `(dist, vert)`), `NONE` for the driver and for
/// unreachable vertices.
fn shortest_paths(
    graph: &RoutingGraph,
    skip: Option<u32>,
    weight: impl Fn(u32) -> f64,
) -> (Vec<f64>, Vec<u32>) {
    let nv = graph.verts().len();
    let mut dist = vec![f64::INFINITY; nv];
    let mut parent_edge = vec![NONE; nv];
    let src = graph.driver_vert();
    dist[src as usize] = 0.0;
    let mut heap = BinaryHeap::with_capacity(nv);
    heap.push(HeapItem {
        dist: 0.0,
        vert: src,
    });
    while let Some(HeapItem { dist: d, vert: v }) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(w, e) in graph.adj(v) {
            if !graph.is_alive(e) || Some(e) == skip {
                continue;
            }
            let nd = d + weight(e);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                parent_edge[w as usize] = e;
                heap.push(HeapItem { dist: nd, vert: w });
            }
        }
    }
    (dist, parent_edge)
}

/// The union of the driver-to-terminal paths as an edge mask; `None`
/// if some terminal is unreachable.
fn union_mask(graph: &RoutingGraph, dist: &[f64], parent_edge: &[u32]) -> Option<Vec<bool>> {
    let src = graph.driver_vert();
    let mut in_union = vec![false; graph.edges().len()];
    for &t in graph.terminal_verts() {
        if dist[t as usize].is_infinite() {
            return None;
        }
        let mut cur = t;
        while cur != src {
            let e = parent_edge[cur as usize];
            if e == NONE || in_union[e as usize] {
                break;
            }
            in_union[e as usize] = true;
            cur = other_end(graph, e, cur);
        }
    }
    Some(in_union)
}

/// The endpoint of `e` that is not `v`.
#[inline]
fn other_end(graph: &RoutingGraph, e: u32, v: u32) -> u32 {
    let edge = &graph.edges()[e as usize];
    if edge.a == v {
        edge.b
    } else {
        edge.a
    }
}

/// Physical length of an edge set, summed in the given (ascending
/// edge-index) order — the one summation order every path of this
/// module uses, so equal sets give bit-equal lengths.
fn sum_lengths(graph: &RoutingGraph, edges: impl Iterator<Item = u32>) -> f64 {
    edges.fold(0.0, |acc, e| acc + graph.edges()[e as usize].len_um)
}

/// Computes the tentative tree of a net's routing graph, optionally
/// assuming one extra edge is deleted.
///
/// Returns `None` if some terminal is unreachable from the driver under
/// the assumption (never happens when `skip` is a non-bridge).
pub fn tentative_tree(graph: &RoutingGraph, skip: Option<u32>) -> Option<TentativeTree> {
    tentative_tree_with(graph, skip, |e| graph.edges()[e as usize].len_um)
}

/// Like [`tentative_tree`], but with a caller-supplied edge weight for
/// the shortest-path search (e.g. length plus a congestion penalty, as
/// the sequential baseline router uses). The returned `length_um` is
/// always the *physical* length of the union, independent of the
/// weights.
pub fn tentative_tree_with(
    graph: &RoutingGraph,
    skip: Option<u32>,
    weight: impl Fn(u32) -> f64,
) -> Option<TentativeTree> {
    let (dist, parent_edge) = shortest_paths(graph, skip, weight);
    let in_union = union_mask(graph, &dist, &parent_edge)?;
    let edges: Vec<u32> = (0..in_union.len() as u32)
        .filter(|&e| in_union[e as usize])
        .collect();
    let length_um = sum_lengths(graph, edges.iter().copied());
    Some(TentativeTree { length_um, edges })
}

/// Tentative length only (µm); `None` on disconnection. Bit-equal to
/// `tentative_tree(graph, skip).map(|t| t.length_um)` without
/// collecting the edge list.
pub fn tentative_length_um(graph: &RoutingGraph, skip: Option<u32>) -> Option<f64> {
    let (dist, parent_edge) = shortest_paths(graph, skip, |e| graph.edges()[e as usize].len_um);
    let in_union = union_mask(graph, &dist, &parent_edge)?;
    Some(sum_lengths(
        graph,
        (0..in_union.len() as u32).filter(|&e| in_union[e as usize]),
    ))
}

/// Which of [`HypKernel::length_without`]'s three paths answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypPath {
    /// The deletion moves no first-setter parent of a terminal path:
    /// the base length.
    Base,
    /// Dijkstra re-run over the base subtree below the skipped edge.
    Subtree,
    /// An order-ambiguous tie: the full Dijkstra.
    Fallback,
}

/// The hypothetical-length kernel: the base shortest-path tree of one
/// graph state, answering `tentative_length_um(graph, Some(e))` for any
/// `e` bit for bit while re-running Dijkstra only below `e`.
///
/// Deleting `e` can change distances and parents only inside the
/// subtree `S` hanging below `e` in the base tree: every vertex outside
/// `S` keeps its tree path, hence its distance, and keeps its
/// first-setter parent unless an `S` vertex now *ties* ahead of it. So
/// a lookup takes one of three paths ([`HypPath`]):
///
/// 1. `e` is no tree edge, or its subtree holds no terminal and no
///    vertex that could tie ahead of an outside parent: the union is
///    unchanged, return the base length.
/// 2. Otherwise re-run Dijkstra over `S` seeded from its boundary, give
///    each `S` vertex on a terminal path the first achiever in pop
///    order, and rebuild the union as a diff against the base union.
/// 3. When that pop order is not decidable locally — a tie inside an
///    equal-distance class joined by a zero-length edge, where the
///    heap's discovery order differs from vertex order — call the full
///    Dijkstra.
///
/// The argument is in DESIGN.md §8 ("The hypothetical-length kernel");
/// the full Dijkstra stays the oracle (`tests/hyp_kernel.rs`).
#[derive(Debug, Clone, Default)]
pub struct HypKernel {
    /// Base distance per vertex (`∞` if unreachable).
    dist: Vec<f64>,
    /// Base first-setter parent edge per vertex.
    parent: Vec<u32>,
    /// Preorder index per vertex (`NONE` if unreachable).
    tin: Vec<u32>,
    /// End of each vertex's subtree: `S(v) = order[tin[v]..tout[v]]`.
    tout: Vec<u32>,
    /// Reachable vertices in preorder.
    order: Vec<u32>,
    /// Terminals in each vertex's subtree.
    terms: Vec<u32>,
    /// Per edge: the vertex it is the parent edge of, `NONE` off-tree.
    child: Vec<u32>,
    /// Vertices that achieve some neighbour's distance at exactly the
    /// distance of that neighbour's parent without being it — the only
    /// vertices that could move ahead of an outside parent.
    tie: Vec<bool>,
    /// Alive edges short enough that a distance may absorb them
    /// (`d + w == d`): the only edges that let a vertex's parent sit at
    /// the vertex's own distance.
    zero: Vec<u32>,
    /// Base union, ascending.
    union: Vec<u32>,
    /// Base tentative length; `None` if a terminal is unreachable.
    length_um: Option<f64>,
    /// Whether every alive length is an integer multiple of one power
    /// of two `q` and the alive total stays below `2^52 q`: then every
    /// sum of alive lengths is exact in any order, and a lookup may
    /// patch the base length instead of re-summing the union.
    exact: bool,
    /// Per-lookup scratch: distances of `S`, by `tin - tin[c]`.
    sub_dist: Vec<f64>,
    /// Per-lookup scratch: edges added to the union.
    added: Vec<u32>,
    /// Per-lookup scratch: equal-distance ties awaiting the flat check.
    pending: Vec<f64>,
    /// Per-lookup scratch: vertex visit stamps of the union walk.
    seen: Vec<u32>,
    visit: u32,
    heap: BinaryHeap<HeapItem>,
}

/// The subtree `S = order[lo..hi]` below the skipped edge `skip`.
#[derive(Debug, Clone, Copy)]
struct Subtree {
    skip: u32,
    child: u32,
    lo: u32,
    hi: u32,
}

/// A pop-order question the subtree cannot answer locally.
struct Ambiguous;

impl HypKernel {
    /// Builds the base tree of `graph`'s current state.
    pub fn build(graph: &RoutingGraph) -> Self {
        let len = |e: u32| graph.edges()[e as usize].len_um;
        let (dist, parent) = shortest_paths(graph, None, len);
        let (nv, ne) = (graph.verts().len(), graph.edges().len());
        let parent_of = |v: u32| other_end(graph, parent[v as usize], v) as usize;

        // Children in CSR form, then an iterative preorder walk.
        let mut child = vec![NONE; ne];
        let mut start = vec![0u32; nv + 1];
        for v in 0..nv as u32 {
            if parent[v as usize] != NONE {
                child[parent[v as usize] as usize] = v;
                start[parent_of(v) + 1] += 1;
            }
        }
        for v in 0..nv {
            start[v + 1] += start[v];
        }
        let mut cursor = start.clone();
        let mut kids = vec![0u32; start[nv] as usize];
        for v in 0..nv as u32 {
            if parent[v as usize] != NONE {
                let p = parent_of(v);
                kids[cursor[p] as usize] = v;
                cursor[p] += 1;
            }
        }
        let mut tin = vec![NONE; nv];
        let mut order = Vec::with_capacity(nv);
        let mut stack = vec![graph.driver_vert()];
        while let Some(v) = stack.pop() {
            tin[v as usize] = order.len() as u32;
            order.push(v);
            stack.extend_from_slice(
                &kids[start[v as usize] as usize..start[v as usize + 1] as usize],
            );
        }
        // Subtree sizes and terminal counts, children before parents.
        let mut size = vec![1u32; nv];
        let mut terms = vec![0u32; nv];
        for &t in graph.terminal_verts() {
            terms[t as usize] += 1;
        }
        for &v in order.iter().rev() {
            if parent[v as usize] != NONE {
                let p = parent_of(v);
                size[p] += size[v as usize];
                terms[p] += terms[v as usize];
            }
        }
        let tout = (0..nv).map(|v| tin[v].wrapping_add(size[v])).collect();

        let total: f64 = graph.alive_edges().map(len).sum();
        let exact = (0..=52)
            .map(|k| 2f64.powi(k))
            .find(|&scale| graph.alive_edges().all(|e| (len(e) * scale).fract() == 0.0))
            .is_some_and(|scale| total * scale < 2f64.powi(52));
        let zero = graph
            .alive_edges()
            .filter(|&e| len(e) <= total * f64::EPSILON)
            .collect();
        let mut tie = vec![false; nv];
        for &v in &order {
            let dv = dist[v as usize];
            tie[v as usize] = graph.adj(v).iter().any(|&(o, e)| {
                let po = parent[o as usize];
                graph.is_alive(e)
                    && po != NONE
                    && po != e
                    && dv + len(e) == dist[o as usize]
                    && dv == dist[parent_of(o)]
            });
        }
        let union: Vec<u32> = (0..ne as u32)
            .filter(|&e| child[e as usize] != NONE && terms[child[e as usize] as usize] > 0)
            .collect();
        let length_um = graph
            .terminal_verts()
            .iter()
            .all(|&t| dist[t as usize].is_finite())
            .then(|| sum_lengths(graph, union.iter().copied()));
        Self {
            dist,
            parent,
            tin,
            tout,
            order,
            terms,
            child,
            tie,
            zero,
            union,
            length_um,
            exact,
            seen: vec![0; nv],
            ..Self::default()
        }
    }

    /// Base tentative length (`tentative_length_um(graph, None)`).
    pub fn base_length_um(&self) -> Option<f64> {
        self.length_um
    }

    /// `tentative_length_um(graph, Some(e))`, bit for bit, and the path
    /// that answered. `graph` must be in the state the kernel was
    /// (re)built for.
    pub fn length_without(&mut self, graph: &RoutingGraph, e: u32) -> (Option<f64>, HypPath) {
        let c = self.child[e as usize];
        if c == NONE || self.length_um.is_none() {
            return (self.length_um, HypPath::Base);
        }
        let s = Subtree {
            skip: e,
            child: c,
            lo: self.tin[c as usize],
            hi: self.tout[c as usize],
        };
        let carries_terminal = self.terms[c as usize] > 0;
        let range = s.lo as usize..s.hi as usize;
        if !carries_terminal && !self.order[range].iter().any(|&v| self.tie[v as usize]) {
            return (self.length_um, HypPath::Base);
        }
        let answer = self.relax_subtree(graph, s).and_then(|()| {
            if carries_terminal {
                self.rebuild_union(graph, s)
            } else {
                Ok(self.length_um)
            }
        });
        match answer {
            Ok(len) => (len, HypPath::Subtree),
            Err(Ambiguous) => (tentative_length_um(graph, Some(e)), HypPath::Fallback),
        }
    }

    /// Position of `v` in `S`, if it lies there.
    #[inline]
    fn pos(&self, s: Subtree, v: u32) -> Option<usize> {
        let off = self.tin[v as usize].wrapping_sub(s.lo);
        (off < s.hi - s.lo).then_some(off as usize)
    }

    /// Distance of `v` with `s.skip` deleted (valid once `S` is relaxed).
    #[inline]
    fn new_dist(&self, s: Subtree, v: u32) -> f64 {
        match self.pos(s, v) {
            Some(i) => self.sub_dist[i],
            None => self.dist[v as usize],
        }
    }

    /// Whether distance `d` (with `s.skip` deleted) may hold vertices
    /// discovered through a zero-length edge at equal distance — the
    /// only way the heap's pop order inside `d` departs from vertex
    /// order. Zero-length edges have equal-distance endpoints, so one
    /// end suffices.
    fn flat(&self, graph: &RoutingGraph, s: Subtree, d: f64) -> bool {
        self.zero
            .iter()
            .any(|&z| z != s.skip && self.new_dist(s, graph.edges()[z as usize].a) == d)
    }

    /// Dijkstra over `S` seeded from its boundary, then the check that
    /// no `S` vertex pops ahead of an outside vertex's parent while
    /// achieving its distance (which would steal the parent).
    fn relax_subtree(&mut self, graph: &RoutingGraph, s: Subtree) -> Result<(), Ambiguous> {
        let len = |e: u32| graph.edges()[e as usize].len_um;
        let n = (s.hi - s.lo) as usize;
        self.sub_dist.clear();
        self.sub_dist.resize(n, f64::INFINITY);
        self.heap.clear();
        for i in 0..n {
            let v = self.order[s.lo as usize + i];
            let mut best = f64::INFINITY;
            for &(u, e) in graph.adj(v) {
                if graph.is_alive(e) && e != s.skip && self.pos(s, u).is_none() {
                    best = best.min(self.dist[u as usize] + len(e));
                }
            }
            if best.is_finite() {
                self.sub_dist[i] = best;
                self.heap.push(HeapItem {
                    dist: best,
                    vert: v,
                });
            }
        }
        self.pending.clear();
        while let Some(HeapItem { dist: d, vert: v }) = self.heap.pop() {
            if d > self.sub_dist[self.pos(s, v).expect("heap holds S vertices")] {
                continue;
            }
            for &(u, e) in graph.adj(v) {
                if !graph.is_alive(e) || e == s.skip {
                    continue;
                }
                let nd = d + len(e);
                if let Some(j) = self.pos(s, u) {
                    if nd < self.sub_dist[j] {
                        self.sub_dist[j] = nd;
                        self.heap.push(HeapItem { dist: nd, vert: u });
                    }
                    continue;
                }
                let pe = self.parent[u as usize];
                if pe == NONE || nd != self.dist[u as usize] {
                    continue;
                }
                // `v` achieves the outside `u`: it must pop after u's
                // parent `p`, which it does by distance or, within a
                // non-flat distance, by vertex order.
                let p = other_end(graph, pe, u);
                let dp = self.dist[p as usize];
                if d < dp || (d == dp && v < p) {
                    return Err(Ambiguous);
                }
                if d == dp {
                    self.pending.push(d);
                }
            }
        }
        if self.pending.iter().any(|&d| self.flat(graph, s, d)) {
            return Err(Ambiguous);
        }
        Ok(())
    }

    /// First-setter parent `(edge, vertex)` of `t ∈ S` with `s.skip`
    /// deleted: the first achiever in pop order — lowest distance, then
    /// lowest vertex (decidable only outside flat distances), then
    /// lowest edge index (adjacency is in edge order).
    fn subtree_parent(
        &self,
        graph: &RoutingGraph,
        s: Subtree,
        t: u32,
    ) -> Result<(u32, u32), Ambiguous> {
        let target = self.new_dist(s, t);
        let mut best: Option<(f64, u32, u32)> = None;
        let mut tied = false;
        for &(u, e) in graph.adj(t) {
            if !graph.is_alive(e) || e == s.skip || u == t {
                continue;
            }
            let du = self.new_dist(s, u);
            if du + graph.edges()[e as usize].len_um != target {
                continue;
            }
            match best {
                Some((bd, bu, _)) if du > bd || (du == bd && u == bu) => {}
                Some((bd, bu, _)) if du == bd => {
                    tied = true;
                    if u < bu {
                        best = Some((du, u, e));
                    }
                }
                _ => {
                    tied = false;
                    best = Some((du, u, e));
                }
            }
        }
        let (bd, bu, be) = best.expect("a reachable subtree vertex has an achiever");
        if tied && self.flat(graph, s, bd) {
            return Err(Ambiguous);
        }
        Ok((be, bu))
    }

    /// Whether base union edge `u` (parent edge of `y`) survives: `y`
    /// lies outside `S` and keeps a terminal outside `S` below it.
    #[inline]
    fn kept(&self, s: Subtree, y: u32) -> bool {
        if self.pos(s, y).is_some() {
            return false;
        }
        let (ty, tc) = (self.tin[y as usize], self.tin[s.child as usize]);
        let ancestor = ty <= tc && tc < self.tout[y as usize];
        let in_s = if ancestor {
            self.terms[s.child as usize]
        } else {
            0
        };
        self.terms[y as usize] > in_s
    }

    /// The new union as a diff against the base one: drop the edges
    /// only `S` terminals used, add their new paths, and sum — by
    /// patching the base length when sums are exact, else in ascending
    /// edge order over the kept and added edges.
    fn rebuild_union(
        &mut self,
        graph: &RoutingGraph,
        s: Subtree,
    ) -> Result<Option<f64>, Ambiguous> {
        self.visit = self.visit.wrapping_add(1);
        if self.visit == 0 {
            self.seen.iter_mut().for_each(|x| *x = 0);
            self.visit = 1;
        }
        let src = graph.driver_vert();
        self.added.clear();
        for &t in graph.terminal_verts() {
            if self.pos(s, t).is_none() {
                continue;
            }
            if self.new_dist(s, t).is_infinite() {
                return Ok(None);
            }
            let mut x = t;
            while x != src && self.seen[x as usize] != self.visit {
                self.seen[x as usize] = self.visit;
                let pe = if self.pos(s, x).is_some() {
                    self.subtree_parent(graph, s, x)?.0
                } else if self.kept(s, x) {
                    break;
                } else {
                    self.parent[x as usize]
                };
                self.added.push(pe);
                x = other_end(graph, pe, x);
            }
        }
        let len = |e: u32| graph.edges()[e as usize].len_um;
        if self.exact {
            // Every subset sum is exact, so any order gives the bits of
            // the ascending sum.
            let mut dropped = 0.0;
            for &v in &self.order[s.lo as usize..s.hi as usize] {
                if self.terms[v as usize] > 0 {
                    dropped += len(self.parent[v as usize]);
                }
            }
            let all_below = self.terms[s.child as usize];
            let mut x = other_end(graph, s.skip, s.child);
            while x != src && self.terms[x as usize] == all_below {
                let pe = self.parent[x as usize];
                dropped += len(pe);
                x = other_end(graph, pe, x);
            }
            let base = self.length_um.expect("checked by the caller");
            let gained: f64 = self.added.iter().map(|&e| len(e)).sum();
            return Ok(Some((base - dropped) + gained));
        }
        let mut edges = std::mem::take(&mut self.added);
        edges.extend(
            self.union
                .iter()
                .copied()
                .filter(|&u| self.kept(s, self.child[u as usize])),
        );
        edges.sort_unstable();
        let length = sum_lengths(graph, edges.iter().copied());
        self.added = edges;
        Ok(Some(length))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::{cross_row_net, same_row_net};
    use crate::graph::RoutingGraph;

    #[test]
    fn picks_shortest_side_of_cycle() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let t = tentative_tree(&g, None).unwrap();
        // Shortest driver->sink path: branch + trunk + branch = 30 + 8 + 30.
        assert!((t.length_um - 68.0).abs() < 1e-9);
        assert_eq!(t.edges.len(), 3);
    }

    #[test]
    fn skip_forces_detour() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let base = tentative_tree(&g, None).unwrap();
        // Skipping an edge on the chosen path forces the same-cost other
        // channel (symmetric graph), so length is unchanged; skipping BOTH
        // is impossible with one skip, so check a used trunk.
        let used_trunk = base
            .edges
            .iter()
            .copied()
            .find(|&e| g.edges()[e as usize].kind.is_trunk())
            .unwrap();
        let alt = tentative_tree(&g, Some(used_trunk)).unwrap();
        assert!((alt.length_um - base.length_um).abs() < 1e-9);
        assert!(!alt.edges.contains(&used_trunk));
    }

    #[test]
    fn disconnection_returns_none() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[(1, 4)], 30.0);
        // The feed-half edges are bridges; skipping one disconnects.
        let feed_half = (0..g.edges().len() as u32)
            .find(|&e| {
                matches!(
                    g.edges()[e as usize].kind,
                    crate::graph::REdgeKind::FeedHalf { .. }
                )
            })
            .unwrap();
        assert!(tentative_tree(&g, Some(feed_half)).is_none());
        assert!(tentative_tree(&g, None).is_some());
    }

    /// The kernel's answer for `e`, asserted bit-equal to the full
    /// Dijkstra.
    fn kernel_matches(g: &RoutingGraph, e: u32) -> HypPath {
        let (got, path) = HypKernel::build(g).length_without(g, e);
        let want = tentative_length_um(g, Some(e));
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "edge {e}");
        path
    }

    #[test]
    fn kernel_answers_off_tree_edges_from_the_base() {
        // 6-cycle: the sink is reached through both channels at equal
        // distance; the losing tap's branch is no tree edge.
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let kernel = HypKernel::build(&g);
        let off_tree: Vec<u32> = (0..g.edges().len() as u32)
            .filter(|&e| kernel.child[e as usize] == NONE)
            .collect();
        assert_eq!(off_tree.len(), 1, "a 6-cycle spans with 5 edges");
        assert_eq!(kernel_matches(&g, off_tree[0]), HypPath::Base);
    }

    #[test]
    fn kernel_reroutes_the_subtree_below_a_union_edge() {
        // 30.1 µm branches are no dyadic multiple, so the second graph
        // rebuilds the union by the ordered merge instead of patching
        // the base length.
        let (circuit, placement, net) = same_row_net();
        for branch in [30.0, 30.1] {
            let g = RoutingGraph::build(&circuit, &placement, net, &[], branch);
            let base = tentative_tree(&g, None).unwrap();
            let trunk = base
                .edges
                .iter()
                .copied()
                .find(|&e| g.edges()[e as usize].kind.is_trunk())
                .unwrap();
            assert_eq!(kernel_matches(&g, trunk), HypPath::Subtree);
        }
    }

    #[test]
    fn kernel_falls_back_on_a_zero_length_tie() {
        // Zero-length branches join the sink and both of its taps in one
        // equal-distance class; deleting the used trunk leaves the sink
        // with two achievers whose pop order depends on discovery.
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 0.0);
        let base = tentative_tree(&g, None).unwrap();
        let trunk = base
            .edges
            .iter()
            .copied()
            .find(|&e| g.edges()[e as usize].kind.is_trunk())
            .unwrap();
        assert_eq!(kernel_matches(&g, trunk), HypPath::Fallback);
    }

    #[test]
    fn length_only_path_matches_the_tree() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[(1, 4)], 30.0);
        for skip in std::iter::once(None).chain(g.alive_edges().map(Some)) {
            assert_eq!(
                tentative_length_um(&g, skip).map(f64::to_bits),
                tentative_tree(&g, skip).map(|t| t.length_um.to_bits())
            );
        }
    }

    #[test]
    fn multi_sink_union_shares_trunk() {
        // Three terminals in one row: driver at x=2 (u1.Y), sinks at x=6,
        // x=9; the union should share trunk segments, with total length
        // less than the sum of individual paths.
        use bgr_layout::{Geometry, PlacementBuilder};
        use bgr_netlist::{CellId, CellLibrary, CircuitBuilder};
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        let u3 = cb.add_cell("u3", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        let net = cb
            .add_net(
                "n1",
                cb.cell_term(u1, "Y").unwrap(),
                [
                    cb.cell_term(u2, "A").unwrap(),
                    cb.cell_term(u3, "A").unwrap(),
                ],
            )
            .unwrap();
        cb.add_net("n2", cb.cell_term(u2, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        // u3.Y dangles (legal).
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        pb.append_with_width(0, CellId::new(0), 3);
        pb.append_with_width(0, CellId::new(1), 3);
        pb.append_with_width(0, CellId::new(2), 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 8);
        let placement = pb.finish(&circuit).unwrap();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let t = tentative_tree(&g, None).unwrap();
        // Driver u1.Y at x=2, sinks at x=3 and x=6 (pin offsets included):
        // one channel: branches 3×30 + trunk spans (2->3) + (3->6) =
        // 8 + 24 µm.
        assert!((t.length_um - (90.0 + 8.0 + 24.0)).abs() < 1e-9);
    }
}
