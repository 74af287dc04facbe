//! The network builder and cleartext reference inference.
//!
//! Mirrors the paper's Listing 1 in Rust: layers are added fluently, skip
//! connections with [`Network::add`], and the same weights drive both the
//! cleartext reference forward pass (the "PyTorch output" every FHE run is
//! validated against, §7) and the FHE compilation.

use crate::layer::{BnParams, Layer};
use orion_tensor::{avg_pool2d, batch_norm2d, conv2d, linear, Conv2dParams, Tensor};
use rand::Rng;

/// Node index within a network.
pub type NodeId = usize;

/// One node: a layer plus its input wiring.
#[derive(Clone, Debug)]
pub struct ModuleNode {
    /// Display name.
    pub name: String,
    /// The layer.
    pub layer: Layer,
    /// Input nodes (one, or two for `Add`).
    pub inputs: Vec<NodeId>,
    /// Output shape `(c, h, w)`; linear/flatten outputs use `(n, 1, 1)`.
    pub shape: (usize, usize, usize),
}

/// A neural network as a DAG of layers.
#[derive(Clone, Debug)]
pub struct Network {
    /// All nodes; index 0 is the input.
    pub nodes: Vec<ModuleNode>,
    output: Option<NodeId>,
}

impl Network {
    /// Starts a network with input shape `(c, h, w)`.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self {
            nodes: vec![ModuleNode {
                name: "input".into(),
                layer: Layer::Input,
                inputs: vec![],
                shape: (c, h, w),
            }],
            output: None,
        }
    }

    /// The input node id.
    pub fn input(&self) -> NodeId {
        0
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: Vec<NodeId>,
        shape: (usize, usize, usize),
    ) -> NodeId {
        assert!(self.output.is_none(), "network already sealed");
        self.nodes.push(ModuleNode {
            name: name.into(),
            layer,
            inputs,
            shape,
        });
        self.nodes.len() - 1
    }

    /// Shape of a node.
    pub fn shape(&self, id: NodeId) -> (usize, usize, usize) {
        self.nodes[id].shape
    }

    /// Adds a convolution with explicit weights.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_with(
        &mut self,
        name: &str,
        prev: NodeId,
        weight: Tensor,
        bias: Vec<f64>,
        stride: usize,
        padding: usize,
        dilation: usize,
        groups: usize,
    ) -> NodeId {
        let (c, h, w) = self.shape(prev);
        let co = weight.shape()[0];
        assert_eq!(
            weight.shape()[1] * groups,
            c,
            "conv input channels mismatch at {name}"
        );
        let p = Conv2dParams {
            stride,
            padding,
            dilation,
            groups,
        };
        let ho = p.out_size(name, h, weight.shape()[2]);
        let wo = p.out_size(name, w, weight.shape()[3]);
        self.push(
            name,
            Layer::Conv2d {
                weight,
                bias,
                stride,
                padding,
                dilation,
                groups,
            },
            vec![prev],
            (co, ho, wo),
        )
    }

    /// Adds a convolution with Kaiming-initialized weights.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d<R: Rng>(
        &mut self,
        name: &str,
        prev: NodeId,
        co: usize,
        k: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        rng: &mut R,
    ) -> NodeId {
        let (c, _, _) = self.shape(prev);
        let fan_in = (c / groups) * k * k;
        let weight = Tensor::kaiming(&[co, c / groups, k, k], fan_in, rng);
        self.conv2d_with(
            name,
            prev,
            weight,
            vec![0.0; co],
            stride,
            padding,
            1,
            groups,
        )
    }

    /// Adds a batch-norm layer (random-identity-ish statistics unless set
    /// explicitly via [`Network::batch_norm2d_with`]).
    pub fn batch_norm2d(&mut self, name: &str, prev: NodeId) -> NodeId {
        let (c, _, _) = self.shape(prev);
        self.batch_norm2d_with(name, prev, BnParams::identity(c))
    }

    /// Adds a batch-norm layer with explicit statistics.
    pub fn batch_norm2d_with(&mut self, name: &str, prev: NodeId, bn: BnParams) -> NodeId {
        let shape = self.shape(prev);
        assert_eq!(bn.gamma.len(), shape.0);
        self.push(name, Layer::BatchNorm2d(bn), vec![prev], shape)
    }

    /// Adds a fully-connected layer with explicit weights.
    pub fn linear_with(
        &mut self,
        name: &str,
        prev: NodeId,
        weight: Tensor,
        bias: Vec<f64>,
    ) -> NodeId {
        let (c, h, w) = self.shape(prev);
        assert_eq!(
            weight.shape()[1],
            c * h * w,
            "linear input size mismatch at {name}"
        );
        let n_out = weight.shape()[0];
        self.push(
            name,
            Layer::Linear { weight, bias },
            vec![prev],
            (n_out, 1, 1),
        )
    }

    /// Adds a fully-connected layer with Kaiming-initialized weights.
    pub fn linear<R: Rng>(
        &mut self,
        name: &str,
        prev: NodeId,
        n_out: usize,
        rng: &mut R,
    ) -> NodeId {
        let (c, h, w) = self.shape(prev);
        let n_in = c * h * w;
        let weight = Tensor::kaiming(&[n_out, n_in], n_in, rng);
        self.linear_with(name, prev, weight, vec![0.0; n_out])
    }

    /// Adds average pooling.
    pub fn avg_pool2d(&mut self, name: &str, prev: NodeId, k: usize, stride: usize) -> NodeId {
        self.avg_pool2d_pad(name, prev, k, stride, 0)
    }

    /// Adds average pooling with zero padding.
    pub fn avg_pool2d_pad(
        &mut self,
        name: &str,
        prev: NodeId,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> NodeId {
        let (c, h, w) = self.shape(prev);
        let p = Conv2dParams {
            stride,
            padding,
            ..Default::default()
        };
        let (ho, wo) = (p.out_size(name, h, k), p.out_size(name, w, k));
        self.push(
            name,
            Layer::AvgPool2d { k, stride, padding },
            vec![prev],
            (c, ho, wo),
        )
    }

    /// Adds global average pooling.
    pub fn global_avg_pool(&mut self, name: &str, prev: NodeId) -> NodeId {
        let (c, _, _) = self.shape(prev);
        self.push(name, Layer::GlobalAvgPool, vec![prev], (c, 1, 1))
    }

    /// Adds a ReLU with the given composite sign degrees.
    pub fn relu(&mut self, name: &str, prev: NodeId, degrees: &[usize]) -> NodeId {
        let shape = self.shape(prev);
        self.push(
            name,
            Layer::ReLU {
                degrees: degrees.to_vec(),
            },
            vec![prev],
            shape,
        )
    }

    /// Adds a SiLU of the given degree.
    pub fn silu(&mut self, name: &str, prev: NodeId, degree: usize) -> NodeId {
        let shape = self.shape(prev);
        self.push(name, Layer::SiLU { degree }, vec![prev], shape)
    }

    /// Adds the `x²` activation.
    pub fn square(&mut self, name: &str, prev: NodeId) -> NodeId {
        let shape = self.shape(prev);
        self.push(name, Layer::Square, vec![prev], shape)
    }

    /// Adds a custom activation (paper: "Orion supports arbitrary
    /// activation functions that can be fit with high-degree polynomials").
    pub fn activation(
        &mut self,
        name: &str,
        prev: NodeId,
        degree: usize,
        f: fn(f64) -> f64,
    ) -> NodeId {
        let shape = self.shape(prev);
        self.push(
            name,
            Layer::Activation {
                name: name.to_string(),
                degree,
                table: f,
            },
            vec![prev],
            shape,
        )
    }

    /// Adds a flatten marker.
    pub fn flatten(&mut self, name: &str, prev: NodeId) -> NodeId {
        let (c, h, w) = self.shape(prev);
        self.push(name, Layer::Flatten, vec![prev], (c * h * w, 1, 1))
    }

    /// Adds a residual join.
    pub fn add(&mut self, name: &str, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.shape(a),
            self.shape(b),
            "residual shapes must match at {name}"
        );
        let shape = self.shape(a);
        self.push(name, Layer::Add, vec![a, b], shape)
    }

    /// Seals the network at `prev`.
    pub fn output(&mut self, prev: NodeId) -> NodeId {
        let shape = self.shape(prev);
        let id = self.push("output", Layer::Output, vec![prev], shape);
        self.output = Some(id);
        id
    }

    /// The sealed output node.
    pub fn output_node(&self) -> NodeId {
        self.output.expect("network not sealed with .output()")
    }

    /// Total parameter count (the paper's "Params (M)" column).
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.param_count()).sum()
    }

    /// Approximate multiply-accumulate count (the paper's "FLOPS (M)").
    pub fn flop_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.layer {
                Layer::Conv2d { weight, groups, .. } => {
                    let (co, ho, wo) = n.shape;
                    let _ = co;
                    let per_pos = weight.shape()[1] * weight.shape()[2] * weight.shape()[3];
                    n.shape.0 * ho * wo * per_pos / *groups * *groups
                }
                Layer::Linear { weight, .. } => weight.len(),
                _ => 0,
            })
            .sum()
    }

    /// Reference cleartext forward pass with **exact** activations
    /// (the "PyTorch" output).
    pub fn forward_exact(&self, input: &Tensor) -> Tensor {
        self.forward_impl(input, None)
    }

    /// Forward pass using the *fitted polynomial* activations (the ideal
    /// noise-free FHE output); `ranges[id]` holds each activation's fitted
    /// input range.
    pub fn forward_poly(&self, input: &Tensor, acts: &crate::act::CompiledActs) -> Tensor {
        self.forward_impl(input, Some(acts))
    }

    /// Reference forward pass returning every node's output (used by range
    /// estimation).
    pub fn forward_all_exact(&self, input: &Tensor) -> Vec<Tensor> {
        self.forward_nodes(input, None)
    }

    /// Polynomial-activation forward pass returning every node's output
    /// (used by the poly-aware range-estimation refinement).
    pub fn forward_all_poly(&self, input: &Tensor, acts: &crate::act::CompiledActs) -> Vec<Tensor> {
        self.forward_nodes(input, Some(acts))
    }

    fn forward_impl(&self, input: &Tensor, acts: Option<&crate::act::CompiledActs>) -> Tensor {
        let mut vals = self.forward_nodes(input, acts);
        vals.swap_remove(self.output_node())
    }

    fn forward_nodes(
        &self,
        input: &Tensor,
        acts: Option<&crate::act::CompiledActs>,
    ) -> Vec<Tensor> {
        let mut vals: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        vals.push(input.clone());
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let ins: Vec<&Tensor> = node.inputs.iter().map(|&i| &vals[i]).collect();
            let out = self.eval_node(id, &ins, acts);
            vals.push(out);
        }
        vals
    }

    /// Evaluates node `id` on its input values `ins` (in `inputs` order):
    /// activations exactly when `acts` is `None`, else through their fitted
    /// polynomials. The one cleartext per-node body — the forward passes
    /// and batch-norm calibration (`crate::fit`) both call it.
    pub(crate) fn eval_node(
        &self,
        id: NodeId,
        ins: &[&Tensor],
        acts: Option<&crate::act::CompiledActs>,
    ) -> Tensor {
        let x = ins[0];
        match &self.nodes[id].layer {
            Layer::Input => unreachable!("the input node is not evaluated"),
            Layer::Conv2d {
                weight,
                bias,
                stride,
                padding,
                dilation,
                groups,
            } => {
                let p = Conv2dParams {
                    stride: *stride,
                    padding: *padding,
                    dilation: *dilation,
                    groups: *groups,
                };
                conv2d(x, weight, bias, p)
            }
            Layer::BatchNorm2d(bn) => {
                batch_norm2d(x, &bn.gamma, &bn.beta, &bn.mean, &bn.var, bn.eps)
            }
            Layer::Linear { weight, bias } => {
                let out = linear(x.data(), weight, bias);
                let n = out.len();
                Tensor::from_vec(&[n, 1, 1], out)
            }
            Layer::AvgPool2d { k, stride, padding } => avg_pool2d(x, *k, *stride, *padding),
            Layer::GlobalAvgPool => {
                let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                let mut out = Tensor::zeros(&[c, 1, 1]);
                for ch in 0..c {
                    let s: f64 = (0..h * w).map(|i| x.data()[ch * h * w + i]).sum();
                    out.data_mut()[ch] = s / (h * w) as f64;
                }
                out
            }
            Layer::Square => x.map(|v| v * v),
            Layer::ReLU { .. } | Layer::SiLU { .. } | Layer::Activation { .. }
                if acts.is_some() =>
            {
                acts.expect("checked above").apply(id, x)
            }
            Layer::ReLU { .. } => x.map(|v| v.max(0.0)),
            Layer::SiLU { .. } => x.map(|v| v / (1.0 + (-v).exp())),
            Layer::Activation { table, .. } => x.map(*table),
            Layer::Flatten => {
                let n = x.len();
                x.clone().reshape(&[n, 1, 1])
            }
            Layer::Add => x.add(ins[1]),
            Layer::Output => x.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Network {
        let mut net = Network::new(1, 8, 8);
        let x = net.input();
        let c1 = net.conv2d("conv1", x, 4, 3, 1, 1, 1, rng);
        let a1 = net.relu("act1", c1, &[15]);
        let p = net.avg_pool2d("pool", a1, 2, 2);
        let f = net.flatten("flat", p);
        let l = net.linear("fc", f, 10, rng);
        net.output(l);
        net
    }

    #[test]
    fn shapes_are_inferred() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        assert_eq!(net.shape(1), (4, 8, 8)); // conv
        assert_eq!(net.shape(3), (4, 4, 4)); // pool
        assert_eq!(net.shape(4), (64, 1, 1)); // flatten
        assert_eq!(net.shape(5), (10, 1, 1)); // fc
    }

    #[test]
    fn forward_exact_runs() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = tiny_net(&mut rng);
        let input = Tensor::kaiming(&[1, 8, 8], 64, &mut rng);
        let out = net.forward_exact(&input);
        assert_eq!(out.shape(), &[10, 1, 1]);
        assert!(out.max_abs() > 0.0);
    }

    #[test]
    fn residual_add_requires_matching_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new(2, 4, 4);
        let x = net.input();
        let c = net.conv2d("c", x, 2, 3, 1, 1, 1, &mut rng);
        let a = net.add("res", c, x);
        net.output(a);
        let input = Tensor::kaiming(&[2, 4, 4], 32, &mut rng);
        let out = net.forward_exact(&input);
        assert_eq!(out.shape(), &[2, 4, 4]);
    }

    #[test]
    #[should_panic(
        expected = "big: a 5-wide window (kernel 5, dilation 1) does not fit a 4-wide input padded by 0"
    )]
    fn conv_window_larger_than_its_input_is_refused() {
        let mut net = Network::new(1, 4, 4);
        let x = net.input();
        net.conv2d_with(
            "big",
            x,
            Tensor::zeros(&[1, 1, 5, 5]),
            vec![0.0],
            2,
            0,
            1,
            1,
        );
    }

    #[test]
    #[should_panic(
        expected = "wide: a 5-wide window (kernel 5, dilation 1) does not fit a 4-wide input padded by 0"
    )]
    fn pool_window_larger_than_its_input_is_refused() {
        let mut net = Network::new(1, 4, 4);
        let x = net.input();
        net.avg_pool2d_pad("wide", x, 5, 2, 0);
    }

    #[test]
    fn param_and_flop_counts_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = tiny_net(&mut rng);
        assert_eq!(net.param_count(), 4 * 9 + 4 + 64 * 10 + 10);
        assert!(net.flop_count() > net.param_count());
    }
}
