//! Benchmarks of bootstrap placement (Table 5's "Boot. Place." column):
//! runtime must scale linearly with network depth.

use orion_bench::bench;
use orion_graph::ir::{chain, NodeKind};
use orion_graph::{place, place_lazy};

fn main() {
    for depth in [20usize, 110, 440] {
        let layers: Vec<(NodeKind, usize, f64)> = (0..depth)
            .map(|i| {
                if i % 2 == 0 {
                    (NodeKind::Linear, 1, 0.05)
                } else {
                    (NodeKind::Activation, 6, 0.4)
                }
            })
            .collect();
        let graph = chain(&layers, 10, 1);
        bench(
            &format!("placement_chain/shortest_path/{depth}"),
            10,
            || place(&graph, 10, 11.0),
        );
        bench(&format!("placement_chain/lazy/{depth}"), 10, || {
            place_lazy(&graph, 10, 11.0)
        });
    }
}
