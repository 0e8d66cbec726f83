//! Compressed-sparse-row successor storage.
//!
//! The exploration appends the successors of node `i` while `i` is the node
//! being expanded and nodes are expanded in id order, so the edge list can be
//! laid out directly in CSR form: one flat target vector plus one offset per
//! node, with no per-node `Vec` allocations and no linear `contains` scans
//! (duplicate edges are filtered with an O(1) stamp check during the build).

/// A forward-star (CSR) successor graph over dense node ids.
#[derive(Debug, Clone)]
pub(crate) struct CsrGraph {
    /// `offsets[i]..offsets[i + 1]` indexes the successors of node `i`.
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Default for CsrGraph {
    /// An empty graph ready to receive node 0's edges.
    fn default() -> Self {
        CsrGraph {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl CsrGraph {
    /// Empties the graph for a fresh build, keeping both allocations.
    pub(crate) fn reset(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
    }

    /// Appends an out-edge of the node currently being sealed.
    pub(crate) fn push_edge(&mut self, target: usize) {
        self.targets.push(target);
    }

    /// Seals the current node: all edges pushed since the previous seal belong
    /// to it.
    pub(crate) fn seal_node(&mut self) {
        self.offsets.push(self.targets.len());
    }

    /// The number of nodes.
    #[must_use]
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of node `v`, in discovery order.
    #[must_use]
    pub(crate) fn successors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a CSR graph from per-node adjacency lists, the way `explore`
    /// does: edges of node `i` are pushed while node `i` is being expanded.
    fn from_adjacency(adj: &[&[usize]]) -> CsrGraph {
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
    fn layout_matches_adjacency() {
        let g = from_adjacency(&[&[1, 2], &[], &[0, 2]]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.successors(1), &[] as &[usize]);
        assert_eq!(g.successors(2), &[0, 2]);
    }

    #[test]
    fn empty_graph_has_no_nodes() {
        let g = from_adjacency(&[]);
        assert_eq!(g.node_count(), 0);
    }
}
