//! Single-entry single-exit (SESE) region boundaries.
//!
//! Every residual connection in a network without overlapping skips (the
//! paper excludes DenseNets, §5.1) forms a SESE region bounded by a *fork*
//! node (out-degree > 1) and its *join* — the fork's immediate
//! post-dominator, which is how placement finds the regions it collapses.
//! We compute post-dominators by iterative dataflow over the reverse graph
//! (the graphs are layer-level, a few thousand nodes at most, so the
//! simple `O(V²)` scheme is instant).

use crate::ir::{Graph, NodeId};

/// Computes the immediate post-dominator of every node (the output node
/// post-dominates everything; its own entry is `None`).
pub fn immediate_post_dominators(g: &Graph) -> Vec<Option<NodeId>> {
    let n = g.len();
    let exit = g.output();
    // postdom sets via bitsets (Vec<u64> words)
    let words = n.div_ceil(64);
    let mut full = vec![u64::MAX; words];
    // mask off unused bits
    if !n.is_multiple_of(64) {
        full[words - 1] = (1u64 << (n % 64)) - 1;
    }
    let mut pdom: Vec<Vec<u64>> = vec![full.clone(); n];
    let mut exit_only = vec![0u64; words];
    exit_only[exit / 64] |= 1u64 << (exit % 64);
    pdom[exit] = exit_only;
    // Iterate to fixpoint in reverse topological order.
    let order = g.topo_order();
    let mut changed = true;
    while changed {
        changed = false;
        for &v in order.iter().rev() {
            if v == exit {
                continue;
            }
            let succs = g.succs(v);
            if succs.is_empty() {
                continue;
            }
            let mut new = pdom[succs[0]].clone();
            for &s in &succs[1..] {
                for (w, x) in new.iter_mut().zip(&pdom[s]) {
                    *w &= x;
                }
            }
            new[v / 64] |= 1u64 << (v % 64);
            if new != pdom[v] {
                pdom[v] = new;
                changed = true;
            }
        }
    }
    // Immediate post-dominator: the strict post-dominator closest in
    // topological order.
    let mut topo_pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        topo_pos[v] = i;
    }
    (0..n)
        .map(|v| {
            if v == exit {
                return None;
            }
            let mut best: Option<NodeId> = None;
            for u in 0..n {
                if u != v
                    && (pdom[v][u / 64] >> (u % 64)) & 1 == 1
                    && best.map(|b| topo_pos[u] < topo_pos[b]).unwrap_or(true)
                {
                    best = Some(u);
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Node, NodeKind};

    /// input -> a -> (fork) b -> c -> (join) d -> output, with skip b->d.
    fn residual_graph() -> Graph {
        let mut g = Graph::new();
        let lat = vec![0.1; 8];
        let input = g.add_node(Node::new("input", NodeKind::Input, 0, lat.clone(), 1));
        let a = g.add_node(Node::new("a", NodeKind::Linear, 1, lat.clone(), 1));
        let b = g.add_node(Node::new("b", NodeKind::Linear, 1, lat.clone(), 1)); // fork
        let c = g.add_node(Node::new("c", NodeKind::Activation, 4, lat.clone(), 1));
        let d = g.add_node(Node::new("d", NodeKind::Add, 0, lat.clone(), 1)); // join
        let out = g.add_node(Node::new("output", NodeKind::Output, 0, lat, 1));
        g.add_edge(input, a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, d);
        g.add_edge(b, d); // skip
        g.add_edge(d, out);
        g
    }

    #[test]
    fn ipdom_of_chain_is_successor() {
        let g = crate::ir::chain(&[(NodeKind::Linear, 1, 0.1); 3], 4, 1);
        let ipdom = immediate_post_dominators(&g);
        assert_eq!(ipdom[0], Some(1));
        assert_eq!(ipdom[1], Some(2));
        assert_eq!(ipdom[g.output()], None);
    }

    #[test]
    fn fork_join_detected() {
        let g = residual_graph();
        // the one fork's join is its immediate post-dominator
        let forks: Vec<NodeId> = (0..g.len()).filter(|&v| g.succs(v).len() > 1).collect();
        assert_eq!(forks, vec![2]);
        assert_eq!(immediate_post_dominators(&g)[2], Some(4));
    }

    #[test]
    fn nested_regions_detected() {
        // input -> f1 -> f2 -> x -> j2 -> y -> j1 -> output
        //          \----------------------^   (skip f1->j1)
        //                \---------^          (skip f2->j2)
        let mut g = Graph::new();
        let lat = vec![0.1; 8];
        let ids: Vec<_> = [
            ("input", NodeKind::Input, 0),
            ("f1", NodeKind::Linear, 1),
            ("f2", NodeKind::Linear, 1),
            ("x", NodeKind::Activation, 3),
            ("j2", NodeKind::Add, 0),
            ("y", NodeKind::Linear, 1),
            ("j1", NodeKind::Add, 0),
            ("output", NodeKind::Output, 0),
        ]
        .iter()
        .map(|&(n, k, d)| g.add_node(Node::new(n, k, d, lat.clone(), 1)))
        .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(ids[1], ids[6]); // f1 -> j1
        g.add_edge(ids[2], ids[4]); // f2 -> j2
        let forks: Vec<NodeId> = (0..g.len()).filter(|&v| g.succs(v).len() > 1).collect();
        assert_eq!(forks, vec![ids[1], ids[2]]);
        let ipdom = immediate_post_dominators(&g);
        assert_eq!(ipdom[ids[1]], Some(ids[6]));
        assert_eq!(ipdom[ids[2]], Some(ids[4]));
    }
}
