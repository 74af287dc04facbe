//! The layer-level network IR consumed by bootstrap placement.
//!
//! Nodes are whole network layers (paper §5.1 "placement constraint":
//! bootstraps go *between* layers, never inside a linear transform or a
//! polynomial evaluation), annotated with their multiplicative depth, their
//! latency as a function of evaluation level, and the number of ciphertexts
//! on their input wire (a bootstrap on a multi-ciphertext wire refreshes
//! every ciphertext).

/// Index of a node in its graph.
pub type NodeId = usize;

/// What a node computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The network input (fresh ciphertexts; zero cost; choice of starting
    /// level).
    Input,
    /// A linear transform: convolution, fully-connected layer, pooling
    /// (depth 1 under single-shot multiplexed packing — paper §4).
    Linear,
    /// A polynomial activation (depth = composite polynomial depth).
    Activation,
    /// An element-wise join of two wires (residual add; depth 0).
    Add,
    /// The network output (zero cost).
    Output,
}

/// A layer node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Display name (e.g. `layer2.conv1`).
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
    /// Multiplicative depth consumed.
    pub depth: usize,
    /// `latency[ℓ]` = modeled seconds to evaluate this node at level ℓ,
    /// for ℓ in `0..=l_eff`. Entries below `depth` are never used.
    pub latency: Vec<f64>,
    /// Ciphertexts on the node's input wires (bootstrap multiplier: a
    /// bootstrap before the node refreshes each of them).
    pub n_cts: usize,
}

impl Node {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        kind: NodeKind,
        depth: usize,
        latency: Vec<f64>,
        n_cts: usize,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            depth,
            latency,
            n_cts,
        }
    }

    /// Latency at level ℓ (infinite when the node cannot run there).
    pub fn latency_at(&self, level: usize) -> f64 {
        if level < self.depth || level >= self.latency.len() {
            f64::INFINITY
        } else {
            self.latency[level]
        }
    }
}

/// A layer DAG with one input and one output.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a directed edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.succs[from].push(to);
        self.preds[to].push(from);
    }

    /// Successors of `id`.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id]
    }

    /// Predecessors of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The unique `Input` node.
    pub fn input(&self) -> NodeId {
        self.nodes
            .iter()
            .position(|n| n.kind == NodeKind::Input)
            .expect("graph has no input node")
    }

    /// The unique `Output` node.
    pub fn output(&self) -> NodeId {
        self.nodes
            .iter()
            .position(|n| n.kind == NodeKind::Output)
            .expect("graph has no output node")
    }

    /// Topological order (panics on cycles).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &s in &self.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(order.len(), n, "graph has a cycle");
        order
    }

    /// Sum of activation depths (the paper's "Act. Depth" column, Table 2).
    pub fn activation_depth(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Activation)
            .map(|n| n.depth)
            .sum()
    }

    /// Total multiplicative depth along the longest path.
    pub fn total_depth(&self) -> usize {
        let order = self.topo_order();
        let mut d = vec![0usize; self.len()];
        for &v in &order {
            let in_max = self.preds[v].iter().map(|&p| d[p]).max().unwrap_or(0);
            d[v] = in_max + self.nodes[v].depth;
        }
        d[self.output()]
    }
}

/// Builds a simple feed-forward chain (helper for tests and benches).
pub fn chain(layers: &[(NodeKind, usize, f64)], l_eff: usize, n_cts: usize) -> Graph {
    let mut g = Graph::new();
    let input = g.add_node(Node::new(
        "input",
        NodeKind::Input,
        0,
        vec![0.0; l_eff + 1],
        n_cts,
    ));
    let mut prev = input;
    for (i, &(kind, depth, lat)) in layers.iter().enumerate() {
        let latv: Vec<f64> = (0..=l_eff).map(|l| lat * (l + 1) as f64).collect();
        let id = g.add_node(Node::new(format!("l{i}"), kind, depth, latv, n_cts));
        g.add_edge(prev, id);
        prev = id;
    }
    let out = g.add_node(Node::new(
        "output",
        NodeKind::Output,
        0,
        vec![0.0; l_eff + 1],
        n_cts,
    ));
    g.add_edge(prev, out);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_input_and_output() {
        let g = chain(
            &[(NodeKind::Linear, 1, 0.1), (NodeKind::Activation, 4, 0.2)],
            6,
            1,
        );
        assert_eq!(g.len(), 4);
        assert_eq!(g.input(), 0);
        assert_eq!(g.output(), 3);
        assert_eq!(g.total_depth(), 5);
        assert_eq!(g.activation_depth(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = chain(&[(NodeKind::Linear, 1, 0.1); 5], 4, 1);
        let order = g.topo_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for v in 0..g.len() {
            for &s in g.succs(v) {
                assert!(pos[v] < pos[s]);
            }
        }
    }

    #[test]
    fn latency_outside_range_is_infinite() {
        let n = Node::new("x", NodeKind::Activation, 3, vec![1.0; 8], 1);
        assert!(n.latency_at(2).is_infinite());
        assert_eq!(n.latency_at(3), 1.0);
        assert!(n.latency_at(99).is_infinite());
    }
}
