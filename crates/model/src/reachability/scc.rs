//! Tarjan condensation and the linear-time reachability DPs.
//!
//! Every vertex of a strongly connected component can reach exactly the same
//! set of configurations, so "max/min metric over everything reachable" and
//! "can some good configuration be reached" are component properties.  Tarjan
//! emits components in reverse topological order of the condensation (every
//! edge leaves a component for an *earlier-emitted* one), so one pass over the
//! components in emission order computes each query — replacing the seed
//! engine's iterate-until-stable fixpoint loops, whose round count grows with
//! the graph diameter.

use super::csr::CsrGraph;

/// Marker for an unvisited vertex during Tarjan's algorithm.
const UNVISITED: usize = usize::MAX;

/// The strongly-connected-component condensation of a [`CsrGraph`].
///
/// Component ids are Tarjan emission order: component 0 is a sink of the
/// condensation and every edge `v → w` of the underlying graph satisfies
/// `component_of(w) <= component_of(v)`.
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    comp_of: Vec<usize>,
    /// Vertex ids grouped by component: component `c`'s members are
    /// `members[member_offsets[c]..member_offsets[c + 1]]`.
    members: Vec<usize>,
    member_offsets: Vec<usize>,
    // Tarjan scratch, kept so `rebuild` allocates nothing when warm.
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    /// `(vertex, next successor position)` frames of the simulated recursion.
    frames: Vec<(usize, usize)>,
    cursor: Vec<usize>,
}

impl Condensation {
    /// An empty condensation, ready for [`rebuild`](Condensation::rebuild).
    #[must_use]
    pub fn empty() -> Self {
        Condensation::default()
    }

    /// Computes the condensation of `graph` with an iterative Tarjan pass
    /// (explicit stack, so deep chains of configurations cannot overflow the
    /// call stack).
    #[must_use]
    pub fn of(graph: &CsrGraph) -> Self {
        let mut cond = Condensation::empty();
        cond.rebuild(graph);
        cond
    }

    /// Recomputes the condensation of `graph` in place, reusing every
    /// internal buffer — the engine calls this once per verdict, so a box
    /// check condenses thousands of graphs with a handful of allocations.
    pub fn rebuild(&mut self, graph: &CsrGraph) {
        let n = graph.node_count();
        self.index.clear();
        self.index.resize(n, UNVISITED);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.comp_of.clear();
        self.comp_of.resize(n, 0);
        self.stack.clear();
        self.frames.clear();

        let index = &mut self.index;
        let lowlink = &mut self.lowlink;
        let on_stack = &mut self.on_stack;
        let comp_of = &mut self.comp_of;
        let stack = &mut self.stack;
        let frames = &mut self.frames;
        let mut next_index = 0usize;
        let mut num_components = 0usize;

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                if frame.1 == 0 {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let succs = graph.successors(v);
                if frame.1 < succs.len() {
                    let w = succs[frame.1];
                    frame.1 += 1;
                    if index[w] == UNVISITED {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = num_components;
                        if w == v {
                            break;
                        }
                    }
                    num_components += 1;
                }
                if let Some(parent) = frames.last() {
                    lowlink[parent.0] = lowlink[parent.0].min(lowlink[v]);
                }
            }
        }

        // Counting-sort the vertices by component id so the DPs can walk the
        // components in emission order.
        self.member_offsets.clear();
        self.member_offsets.resize(num_components + 1, 0);
        for &c in self.comp_of.iter() {
            self.member_offsets[c + 1] += 1;
        }
        for c in 0..num_components {
            self.member_offsets[c + 1] += self.member_offsets[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.member_offsets);
        self.members.clear();
        self.members.resize(n, 0);
        for (v, &c) in self.comp_of.iter().enumerate() {
            self.members[self.cursor[c]] = v;
            self.cursor[c] += 1;
        }
    }

    /// The number of strongly connected components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// The component id of vertex `v` (emission order, sinks first).
    #[must_use]
    pub fn component_of(&self, v: usize) -> usize {
        self.comp_of[v]
    }

    /// The vertices of component `c`.
    #[must_use]
    pub fn component_members(&self, c: usize) -> &[usize] {
        &self.members[self.member_offsets[c]..self.member_offsets[c + 1]]
    }

    /// Folds a per-vertex value over each component's reachable closure in
    /// one linear reverse-topological pass, writing the per-component results
    /// into `comp_val` (cleared and refilled; a reusable buffer avoids
    /// allocating per query).  Component `c`'s result merges `value_of(v)`
    /// over its members and the results of all successor components, which
    /// are final before `c` by emission order.  This is the single
    /// implementation behind both the public per-vertex queries and the
    /// verdict engine's component arrays.
    ///
    /// `merge` must be idempotent (`merge(a, a) == a`, like max/min/or): an
    /// intra-component edge merges the partially-built cell into itself, so a
    /// non-idempotent merge (e.g. sum) would silently inflate the result.
    pub(crate) fn fold_into<T: Copy>(
        &self,
        graph: &CsrGraph,
        identity: T,
        value_of: impl Fn(usize) -> T,
        merge: impl Fn(T, T) -> T,
        comp_val: &mut Vec<T>,
    ) {
        comp_val.clear();
        comp_val.resize(self.component_count(), identity);
        for c in 0..self.component_count() {
            for &v in self.component_members(c) {
                comp_val[c] = merge(comp_val[c], value_of(v));
                for &w in graph.successors(v) {
                    comp_val[c] = merge(comp_val[c], comp_val[self.comp_of[w]]);
                }
            }
        }
    }

    /// [`fold_into`](Condensation::fold_into) expanded back to one result per
    /// vertex.
    fn fold<T: Copy>(
        &self,
        graph: &CsrGraph,
        value: &[T],
        identity: T,
        merge: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        let mut comp_val = Vec::new();
        self.fold_into(graph, identity, |v| value[v], merge, &mut comp_val);
        self.comp_of.iter().map(|&c| comp_val[c]).collect()
    }

    /// For every vertex, the maximum of `value` over all vertices reachable
    /// from it (including itself).
    #[must_use]
    pub fn max_reachable(&self, graph: &CsrGraph, value: &[u64]) -> Vec<u64> {
        self.fold(graph, value, u64::MIN, u64::max)
    }

    /// For every vertex, the minimum of `value` over all vertices reachable
    /// from it (including itself).
    #[must_use]
    pub fn min_reachable(&self, graph: &CsrGraph, value: &[u64]) -> Vec<u64> {
        self.fold(graph, value, u64::MAX, u64::min)
    }

    /// For every vertex, whether some vertex satisfying `good` is reachable
    /// from it (including itself).
    #[must_use]
    pub fn can_reach(&self, graph: &CsrGraph, good: &[bool]) -> Vec<bool> {
        self.fold(graph, good, false, |a, b| a || b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(adj: &[&[usize]]) -> CsrGraph {
        let mut g = CsrGraph::default();
        for succs in adj {
            for &t in *succs {
                g.push_edge(t);
            }
            g.seal_node();
        }
        g
    }

    #[test]
    fn condensation_of_two_cycles_and_a_bridge() {
        // 0 <-> 1 -> 2 <-> 3, 4 isolated.
        let g = graph(&[&[1], &[0, 2], &[3], &[2], &[]]);
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.component_of(0), c.component_of(1));
        assert_eq!(c.component_of(2), c.component_of(3));
        assert_ne!(c.component_of(0), c.component_of(2));
        // Emission order: every edge goes to an earlier-or-equal component.
        for v in 0..g.node_count() {
            for &w in g.successors(v) {
                assert!(c.component_of(w) <= c.component_of(v));
            }
        }
        let sink = c.component_of(2);
        assert_eq!(c.component_members(sink).len(), 2);
    }

    #[test]
    fn self_loops_are_singleton_components() {
        let g = graph(&[&[0, 1], &[]]);
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 2);
        assert_ne!(c.component_of(0), c.component_of(1));
    }

    #[test]
    fn reachability_folds_on_a_chain() {
        // 0 -> 1 -> 2 with values [5, 1, 3].
        let g = graph(&[&[1], &[2], &[]]);
        let c = Condensation::of(&g);
        assert_eq!(c.max_reachable(&g, &[5, 1, 3]), vec![5, 3, 3]);
        assert_eq!(c.min_reachable(&g, &[5, 1, 3]), vec![1, 1, 3]);
        assert_eq!(
            c.can_reach(&g, &[false, false, true]),
            vec![true, true, true]
        );
        assert_eq!(
            c.can_reach(&g, &[true, false, false]),
            vec![true, false, false]
        );
    }

    #[test]
    fn folds_see_through_cycles() {
        // 0 -> 1 <-> 2, 2 -> 3.
        let g = graph(&[&[1], &[2], &[1, 3], &[]]);
        let c = Condensation::of(&g);
        let max = c.max_reachable(&g, &[0, 9, 2, 4]);
        assert_eq!(max, vec![9, 9, 9, 4]);
        let min = c.min_reachable(&g, &[7, 9, 2, 4]);
        assert_eq!(min, vec![2, 2, 2, 4]);
        let reach = c.can_reach(&g, &[false, false, false, true]);
        assert_eq!(reach, vec![true, true, true, true]);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 0 -> 1 -> … -> 99_999: recursion here would overflow.
        let n = 100_000usize;
        let mut g = CsrGraph::default();
        for v in 0..n {
            if v + 1 < n {
                g.push_edge(v + 1);
            }
            g.seal_node();
        }
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), n);
        let values: Vec<u64> = (0..n as u64).collect();
        let max = c.max_reachable(&g, &values);
        assert!(max.iter().all(|&m| m == n as u64 - 1));
    }
}
