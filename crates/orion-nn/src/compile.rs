//! The Orion compile pipeline: network → executable FHE program.
//!
//! Compilation (paper §6) performs, in order: batch-norm folding, range
//! estimation lookup, activation fitting, packing-plan construction for
//! every linear layer, IR construction with cost-model latencies, and
//! automatic bootstrap placement. The result carries its execution plan
//! ([`Compiled::plan`], built once placement has fixed every level) and
//! runs identically on the cleartext engine and on real CKKS.

use crate::act::{compile_activation, CompiledAct, CompiledActs};
use crate::fit::FitResult;
use crate::layer::Layer;
use crate::network::Network;
use crate::sched::{ExecPlan, KeyUse};
use crate::sim::{CostModel, OpCounter, OpKind};
use orion_ckks::KeyManifest;
use orion_graph::{place, Graph, Node, NodeKind, PlacementResult};
use orion_linear::plan::{conv_plan, dense_plan, ConvSpec, LinearPlan};
use orion_linear::values::{BiasValues, ConvDiagSource, DenseDiagSource, DiagSource};
use orion_linear::TensorLayout;
use orion_poly::eval::{
    fhe_eval_depth, relu_product_ops, square_ops, stage_ops, trimmed_degree, StageOps,
};
use orion_tensor::Tensor;

/// One executable program step. `Conv` and `Dense` are the one reading of
/// a linear layer: the walk hands engines the step itself
/// (`EvalBackend::linear_layer(node, step, ..)`), which read its plan and
/// weights through [`Step::linear_plan`] and [`Step::linear_values`].
#[derive(Clone, Debug)]
pub enum Step {
    /// The network input (encrypt here).
    Input,
    /// The network output (decrypt here).
    Output,
    /// A packed convolution (also used for pooling).
    Conv {
        /// The packing plan.
        plan: LinearPlan,
        /// Conv parameters.
        spec: ConvSpec,
        /// Folded weights.
        weight: Tensor,
        /// Folded bias.
        bias: Vec<f64>,
        /// Input layout.
        in_l: TensorLayout,
        /// Output layout.
        out_l: TensorLayout,
    },
    /// A packed fully-connected layer.
    Dense {
        /// The packing plan.
        plan: LinearPlan,
        /// Weights `(n_out, features)`.
        weight: Tensor,
        /// Bias.
        bias: Vec<f64>,
        /// Input layout (pre-flatten tensor layout).
        in_l: TensorLayout,
        /// Output width.
        n_out: usize,
    },
    /// Multiply by `1/range` (activation normalization; depth 1).
    ScaleDown {
        /// The multiplier (≤ 1).
        factor: f64,
    },
    /// One Chebyshev stage on the range-scaled wire; exits on exactly Δ.
    PolyStage {
        /// Chebyshev coefficients.
        coeffs: Vec<f64>,
    },
    /// The final ReLU product `m·u·(s+1)/2`; inputs are
    /// `[normalized wire u, sign wire s]`. Depth 2.
    ReluFinal {
        /// The range `m` to scale back by.
        magnitude: f64,
    },
    /// The `x²` activation (depth 2 including exact-Δ alignment).
    Square,
    /// Residual addition.
    Add,
}

/// A linear layer's diagonal source and its bias blocks
/// ([`Step::linear_values`]).
pub type LinearValues<'a> = (Box<dyn DiagSource + Sync + 'a>, Vec<Vec<f64>>);

/// What a step placed at level `lv` reads and issues ([`Step::sig`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepSig {
    /// The level each input position is dropped to before the step runs
    /// (`None`: the step has no such input).
    pub reads: [Option<usize>; 2],
    /// The complete op list of one plan unit of the step, as `(kind,
    /// count)`: a linear layer's `LinearPlan::counts`, one output
    /// ciphertext's [`StageOps`] for an elementwise step. Its price is
    /// `OpCounter::priced` — there is no other.
    pub ops: Vec<(OpKind, u64)>,
    /// The level the step leaves its output at.
    pub exit_level: usize,
}

/// THE level and op table: what each step kind reserves, reads, issues and
/// leaves behind once placement has fixed its level. Placement prices a
/// node from it before a plan exists ([`ProgNode::seconds_at`]); the plan
/// walk, the op counter and the verifier all read it through
/// `Compiled::unit_io`; the engines are checked against it on every
/// ciphertext they produce.
impl Step {
    /// The levels the step reserves: what compile hands the placement
    /// graph, and what the plan walk and the verifier demand of the
    /// step's placement level. Reserved **equals** consumed for every kind:
    /// `lv − sig(lv).exit_level == depth()` wherever `lv ≥ depth()`.
    pub fn depth(&self) -> usize {
        match self {
            Step::Input | Step::Output | Step::Add => 0,
            Step::Conv { .. } | Step::Dense { .. } | Step::ScaleDown { .. } => 1,
            Step::PolyStage { coeffs } => fhe_eval_depth(trimmed_degree(coeffs)),
            Step::ReluFinal { .. } | Step::Square => 2,
        }
    }

    /// The step's signature at placement level `lv`. Total in `lv`: below
    /// [`Step::depth`] the step cannot run (the verifier's finding, the
    /// walk's assert) and the signature issues nothing and exits at 0
    /// instead of underflowing. `Input` and `Output` have no level of their
    /// own — the plan knows what they read and write.
    pub fn sig(&self, lv: usize) -> StepSig {
        let reads = match self {
            Step::Input | Step::Output => [None, None],
            // the sign wire sits one level below the magnitude wire
            Step::ReluFinal { .. } => [Some(lv), Some(lv.saturating_sub(1))],
            Step::Add => [Some(lv), Some(lv)],
            _ => [Some(lv), None],
        };
        let n = |count: usize| count as u64;
        // an elementwise step: what its evaluator issues per ciphertext
        let stage = |s: StageOps| {
            let ops = vec![
                (OpKind::HMult, s.hmult),
                (OpKind::PMult, s.pmult),
                (OpKind::Rescale, s.rescale),
                (OpKind::HAdd, s.hadd),
                (OpKind::PAdd, s.padd),
            ];
            (ops, s.exit_level)
        };
        let (ops, exit_level) = match self {
            _ if lv < self.depth() => (Vec::new(), 0),
            Step::Input | Step::Output => (Vec::new(), lv),
            // the static op mix of the double-hoisted BSGS matvec
            Step::Conv { plan, .. } | Step::Dense { plan, .. } => {
                let ops = vec![
                    (OpKind::Hoist, n(plan.counts.hoists)),
                    (OpKind::HRotHoisted, n(plan.counts.baby_rots)),
                    (OpKind::HRot, n(plan.counts.giant_rots)),
                    (OpKind::PMult, n(plan.counts.pmults)),
                    (OpKind::ModDown, n(plan.counts.moddowns)),
                    (OpKind::Rescale, n(plan.counts.rescales)),
                ];
                (ops, lv - 1)
            }
            Step::ScaleDown { .. } => (vec![(OpKind::PMult, 1), (OpKind::Rescale, 1)], lv - 1),
            Step::PolyStage { coeffs } => stage(stage_ops(coeffs, lv)),
            Step::ReluFinal { .. } => stage(relu_product_ops(lv)),
            Step::Square => stage(square_ops(lv)),
            Step::Add => (vec![(OpKind::HAdd, 1)], lv),
        };
        StepSig {
            reads,
            ops,
            exit_level,
        }
    }

    /// The BSGS packing plan of a linear layer (`Conv`, `Dense`); `None`
    /// for every other step. What a whole-step plan unit is keyed on.
    pub fn linear_plan(&self) -> Option<&LinearPlan> {
        match self {
            Step::Conv { plan, .. } | Step::Dense { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The weight tensor of a linear layer (`Conv`, `Dense`); `None` for
    /// every other step.
    pub fn linear_weight(&self) -> Option<&Tensor> {
        match self {
            Step::Conv { weight, .. } | Step::Dense { weight, .. } => Some(weight),
            _ => None,
        }
    }

    /// A linear layer's diagonal source and its bias blocks (one per
    /// output ciphertext of `slots` slots) — what every engine running the
    /// rotation algebra, and the setup-time encoder, feed the plan with;
    /// `None` for every other step.
    pub fn linear_values(&self, slots: usize) -> Option<LinearValues<'_>> {
        match self {
            Step::Conv {
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => Some((
                Box::new(ConvDiagSource {
                    in_l: *in_l,
                    out_l: *out_l,
                    spec: *spec,
                    weights: weight,
                }),
                BiasValues::conv(out_l, bias, slots),
            )),
            Step::Dense {
                weight,
                bias,
                in_l,
                n_out,
                ..
            } => Some((
                Box::new(DenseDiagSource::new(weight.clone(), in_l)),
                BiasValues::dense(*n_out, bias, slots),
            )),
            _ => None,
        }
    }
}

/// A program node.
#[derive(Clone, Debug)]
pub struct ProgNode {
    /// Display name.
    pub name: String,
    /// What to execute.
    pub step: Step,
    /// Input program nodes.
    pub inputs: Vec<usize>,
    /// Output data layout.
    pub layout: TensorLayout,
    /// Output ciphertext count.
    pub n_cts: usize,
}

impl ProgNode {
    /// Modeled seconds of the whole node placed at level `lv`: its plan
    /// units' op lists ([`Step::sig`]) at `cost`'s one price — a linear
    /// layer is one unit, an elementwise step one per output ciphertext.
    /// What placement minimises, what `count_plan` sums over the built plan
    /// and what [`Compiled::report`] prints.
    pub fn seconds_at(&self, cost: &CostModel, lv: usize) -> f64 {
        let units = match self.step.linear_plan() {
            Some(_) => 1,
            None => self.n_cts,
        };
        units as f64 * OpCounter::priced(&self.step.sig(lv).ops, cost, lv).seconds
    }
}

/// Compilation options (decoupled from concrete CKKS parameters so the
/// cleartext engine can model the paper's N = 2¹⁶ deployment).
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Slots per ciphertext.
    pub slots: usize,
    /// Levels available after bootstrapping (`L_eff`).
    pub l_eff: usize,
    /// The latency model driving placement.
    pub cost: CostModel,
}

impl CompileOptions {
    /// Paper-scale options: N = 2¹⁶ (32768 slots), L_eff = 10.
    pub fn paper() -> Self {
        Self {
            slots: 1 << 15,
            l_eff: 10,
            cost: CostModel::paper(),
        }
    }

    /// Options matching a concrete CKKS parameter set (for real-FHE runs).
    pub fn from_params(p: &orion_ckks::CkksParams) -> Self {
        Self {
            slots: p.slots(),
            l_eff: p.effective_level(),
            cost: CostModel::for_degree(p.n, p.boot_levels),
        }
    }
}

/// A compiled network and its execution plan. A test that mutates a plan
/// or a placement mutates a clone.
#[derive(Clone)]
pub struct Compiled {
    /// The executable program.
    pub prog: Vec<ProgNode>,
    /// The placement IR (indices match `prog`).
    pub graph: Graph,
    /// The level-management policy.
    pub placement: PlacementResult,
    /// Options used.
    pub opts: CompileOptions,
    /// Compiled activations (for the ideal polynomial reference).
    pub acts: CompiledActs,
    /// Wall-clock seconds spent compiling (excluding placement).
    pub compile_seconds: f64,
    /// Input layout.
    pub input_layout: TensorLayout,
    /// The execution plan every engine walks, every count folds and the
    /// verifier certifies — built once by [`compile`] from `prog` and
    /// `placement`, never rewritten.
    pub plan: ExecPlan,
}

impl Compiled {
    /// Total rotations across all linear-layer plans (static count).
    pub fn planned_rotations(&self) -> usize {
        self.prog
            .iter()
            .filter_map(|p| p.step.linear_plan())
            .map(|plan| plan.counts.rotations())
            .sum()
    }

    /// Union of rotation steps needed by every plan (for key generation).
    pub fn rotation_steps(&self) -> Vec<isize> {
        let plans = self.prog.iter().filter_map(|p| p.step.linear_plan());
        let set: std::collections::BTreeSet<isize> =
            plans.flat_map(|plan| plan.rotation_steps()).collect();
        set.into_iter().collect()
    }

    /// The evaluation keys the program needs, each at the highest level
    /// its plan applies it at and nothing above — what `FheSession::new`
    /// generates: the fold of [`Compiled::for_each_key_use`] over the
    /// plan's units, rotation steps reduced modulo the slot count
    /// (congruent steps share a key). Its key set is
    /// [`Compiled::rotation_steps`] plus the relinearization key. A unit the
    /// plan cannot describe applies nothing — it is the verifier's coverage
    /// finding and the walk's panic.
    ///
    /// One key can be listed above its use: the relinearization key sits
    /// at the higher of the highest product's level and the top rotation
    /// level (a Chebyshev stage may run above every linear layer; a square
    /// usually runs below one). Any ciphertext a unit of the plan computes
    /// on can then be squared on the session's own keys — what the
    /// benchmark's pinned CKKS probe does at the program's median placement
    /// level, which on a `linear@4 → x²@3 → linear@1` program is level 4 —
    /// for the price of the levels between the two in a single key.
    pub fn key_manifest(&self) -> KeyManifest {
        let slots = self.opts.slots as isize;
        let mut manifest = KeyManifest::default();
        for uid in 0..self.plan.units.len() {
            let Ok(io) = self.unit_io(uid) else {
                continue;
            };
            self.for_each_key_use(uid, &io, |key, level| match key {
                KeyUse::Rotation(k) if k.rem_euclid(slots) == 0 => {}
                KeyUse::Rotation(k) => manifest.use_rotation(k.rem_euclid(slots), level),
                KeyUse::Relin => manifest.use_relin(level),
            });
        }
        let top = manifest.rotations.values().copied().max();
        manifest.use_relin(top.unwrap_or(0));
        manifest
    }

    /// Sum of activation depths (Table 2's "Act. Depth").
    pub fn activation_depth(&self) -> usize {
        self.graph.activation_depth()
    }

    /// A human-readable compilation report: per-layer plans, levels, and
    /// bootstrap sites.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "compiled program: {} steps, {} planned rotations, {} bootstraps ({} sites), act depth {}, modeled {:.6} s",
            self.prog.len(),
            self.planned_rotations(),
            self.placement.boot_count,
            self.placement.boot_sites,
            self.activation_depth(),
            self.placement.total_latency
        );
        let _ = writeln!(
            s,
            "{}",
            crate::verify::verify_compiled(self, &crate::verify::VerifyConfig::default()).summary()
        );
        // ring degree 2·slots; the flat figure is a cap of every key at L_eff
        let keys = self.key_manifest();
        let (n, l_eff) = (2 * self.opts.slots, self.opts.l_eff);
        let _ = writeln!(s, "{}", keys.summary(n, l_eff, l_eff));
        for (id, p) in self.prog.iter().enumerate() {
            // the step's modeled seconds at its placement level: the
            // *predicted* column of the attribution table
            let lvl = self.placement.levels[id]
                .map(|l| format!("@L{l} {:.6} s", p.seconds_at(&self.opts.cost, l)))
                .unwrap_or_default();
            let boot = if self.placement.boots_before[id] > 0 {
                format!("  [bootstrap x{}]", self.placement.boots_before[id])
            } else {
                String::new()
            };
            let detail = match &p.step {
                Step::Conv { plan, spec, .. } => format!(
                    "conv {}x{} s{} g{}: {} rots (n1={}), {} pmults, {} ct in/{} out",
                    spec.kh,
                    spec.kw,
                    spec.stride,
                    spec.groups,
                    plan.counts.rotations(),
                    plan.n1,
                    plan.counts.pmults,
                    plan.in_blocks,
                    plan.out_blocks,
                ),
                Step::Dense { plan, n_out, .. } => format!(
                    "dense -> {n_out}: {} rots (n1={}), {} pmults",
                    plan.counts.rotations(),
                    plan.n1,
                    plan.counts.pmults
                ),
                Step::ScaleDown { factor } => format!("scale-down x{factor:.4}"),
                Step::PolyStage { coeffs } => format!("chebyshev deg {}", coeffs.len() - 1),
                Step::ReluFinal { magnitude } => format!("relu final x{magnitude:.3}"),
                Step::Square => "square".to_string(),
                Step::Add => "residual add".to_string(),
                Step::Input => "input".to_string(),
                Step::Output => "output".to_string(),
            };
            let _ = writeln!(s, "  {:>3} {:<16}{lvl:<20}{boot}  {detail}", id, p.name);
        }
        s
    }

    /// The placement rendered as Graphviz dot (paper Figure 6 style).
    pub fn to_dot(&self) -> String {
        orion_graph::to_dot(&self.graph, Some(&self.placement))
    }
}

/// A depthwise convolution over `c` channels (stand-alone batch-norm and
/// the poolings).
fn depthwise(c: usize, kh: usize, kw: usize, stride: usize, padding: usize) -> ConvSpec {
    ConvSpec {
        co: c,
        ci: c,
        kh,
        kw,
        stride,
        padding,
        dilation: 1,
        groups: c,
    }
}

/// Appends `node` to the program and its placement twin — reserving
/// `node.step.depth()` levels, its latency per level unpriced until
/// [`compile`] has the whole program — to the graph; returns the shared id.
/// A bootstrap before the node refreshes every ciphertext of every input
/// wire (`ExecPlan::build`), so that is the count placement prices it at;
/// the input node, which reads no wire, counts its own.
fn emit(prog: &mut Vec<ProgNode>, graph: &mut Graph, node: ProgNode, kind: NodeKind) -> usize {
    let id = prog.len();
    let boot_cts = match node.inputs.as_slice() {
        [] => node.n_cts,
        wires => wires.iter().map(|&w| prog[w].n_cts).sum(),
    };
    let gnode = Node::new(
        node.name.clone(),
        kind,
        node.step.depth(),
        Vec::new(),
        boot_cts,
    );
    let gid = graph.add_node(gnode);
    debug_assert_eq!(gid, id);
    for &i in &node.inputs {
        graph.add_edge(i, id);
    }
    prog.push(node);
    id
}

/// Compiles a network. `fitres` must cover every activation (see
/// `fit::fit` / `fit::fixed_ranges`).
pub fn compile(net: &Network, fitres: &FitResult, opts: &CompileOptions) -> Compiled {
    crate::fit::validate(net, fitres);
    let t0 = std::time::Instant::now();
    let slots = opts.slots;
    let l_eff = opts.l_eff;
    let cost = &opts.cost;

    let mut prog: Vec<ProgNode> = Vec::new();
    let mut graph = Graph::new();
    let mut acts = CompiledActs::default();
    // net node id → prog node id
    let mut map: Vec<usize> = vec![usize::MAX; net.nodes.len()];

    let input_layout = {
        let (c, h, w) = net.shape(net.input());
        TensorLayout::raster(c, h, w)
    };

    for (nid, node) in net.nodes.iter().enumerate() {
        let pin: Vec<usize> = node.inputs.iter().map(|&i| map[i]).collect();
        let in_layout = pin.first().map(|&p| prog[p].layout);
        let pnode = |step: Step, layout: TensorLayout| ProgNode {
            name: node.name.clone(),
            step,
            inputs: pin.clone(),
            layout,
            n_cts: layout.num_ciphertexts(slots),
        };
        // THE linear-layer emitter: a convolution, a stand-alone batch-norm,
        // both poolings and the dense layer differ only in the step.
        let emit_linear =
            |prog: &mut Vec<ProgNode>, graph: &mut Graph, step: Step, out_l: TensorLayout| {
                emit(prog, graph, pnode(step, out_l), NodeKind::Linear)
            };
        let emit_conv = |prog: &mut Vec<ProgNode>,
                         graph: &mut Graph,
                         spec: ConvSpec,
                         weight: Tensor,
                         bias: Vec<f64>| {
            let in_l = in_layout.unwrap();
            let (plan, out_l) = conv_plan(&in_l, &spec, slots);
            let step = Step::Conv {
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
            };
            emit_linear(prog, graph, step, out_l)
        };
        let id = match &node.layer {
            Layer::Input => emit(
                &mut prog,
                &mut graph,
                pnode(Step::Input, input_layout),
                NodeKind::Input,
            ),
            Layer::Output => {
                let l = in_layout.unwrap();
                emit(
                    &mut prog,
                    &mut graph,
                    pnode(Step::Output, l),
                    NodeKind::Output,
                )
            }
            Layer::Conv2d {
                weight,
                bias,
                stride,
                padding,
                dilation,
                groups,
            } => {
                let spec = ConvSpec {
                    co: weight.shape()[0],
                    ci: in_layout.unwrap().c,
                    kh: weight.shape()[2],
                    kw: weight.shape()[3],
                    stride: *stride,
                    padding: *padding,
                    dilation: *dilation,
                    groups: *groups,
                };
                emit_conv(&mut prog, &mut graph, spec, weight.clone(), bias.clone())
            }
            Layer::BatchNorm2d(bn) => {
                // Fold into the producing convolution when possible.
                let pid = pin[0];
                let aff = bn.affine();
                if let Step::Conv {
                    weight, bias, spec, ..
                } = &mut prog[pid].step
                {
                    let (co, cig, kh, kw) = (spec.co, spec.ci / spec.groups, spec.kh, spec.kw);
                    for c in 0..co {
                        let (s, b) = aff[c];
                        for i in 0..cig * kh * kw {
                            weight.data_mut()[c * cig * kh * kw + i] *= s;
                        }
                        bias[c] = bias[c] * s + b;
                    }
                    map[nid] = pid;
                    continue;
                }
                // Standalone BN: a depthwise 1×1 convolution.
                let c = in_layout.unwrap().c;
                let weight = Tensor::from_vec(&[c, 1, 1, 1], aff.iter().map(|&(s, _)| s).collect());
                let bias: Vec<f64> = aff.iter().map(|&(_, b)| b).collect();
                emit_conv(
                    &mut prog,
                    &mut graph,
                    depthwise(c, 1, 1, 1, 0),
                    weight,
                    bias,
                )
            }
            Layer::AvgPool2d { k, stride, padding } => {
                let c = in_layout.unwrap().c;
                let weight =
                    Tensor::from_vec(&[c, 1, *k, *k], vec![1.0 / (k * k) as f64; c * k * k]);
                let spec = depthwise(c, *k, *k, *stride, *padding);
                emit_conv(&mut prog, &mut graph, spec, weight, vec![0.0; c])
            }
            Layer::GlobalAvgPool => {
                let in_l = in_layout.unwrap();
                let (c, kh, kw) = (in_l.c, in_l.h, in_l.w);
                let weight =
                    Tensor::from_vec(&[c, 1, kh, kw], vec![1.0 / (kh * kw) as f64; c * kh * kw]);
                let spec = depthwise(c, kh, kw, 1, 0);
                emit_conv(&mut prog, &mut graph, spec, weight, vec![0.0; c])
            }
            Layer::Linear { weight, bias } => {
                let in_l = in_layout.unwrap();
                let n_out = weight.shape()[0];
                let (plan, out_l) = dense_plan(&in_l, n_out, slots);
                let step = Step::Dense {
                    plan,
                    weight: weight.clone(),
                    bias: bias.clone(),
                    in_l,
                    n_out,
                };
                emit_linear(&mut prog, &mut graph, step, out_l)
            }
            Layer::Flatten => {
                // Structural: subsequent dense layers read the layout.
                map[nid] = pin[0];
                continue;
            }
            Layer::Add => {
                let l = in_layout.unwrap();
                emit(&mut prog, &mut graph, pnode(Step::Add, l), NodeKind::Add)
            }
            act_layer if act_layer.is_activation() => {
                let l = in_layout.unwrap();
                let n = l.num_ciphertexts(slots);
                let range = fitres.ranges.get(&nid).copied().unwrap_or(1.0);
                let compiled = compile_activation(act_layer, range);
                let out =
                    emit_activation(&mut prog, &mut graph, &node.name, &compiled, pin[0], l, n);
                acts.map.insert(nid, compiled);
                map[nid] = out;
                continue;
            }
            other => panic!("unhandled layer {}", other.kind_name()),
        };
        map[nid] = id;
    }

    // THE pricing: a node's latency at each level it could be placed at is
    // its own op list at the cost model's one price per op.
    for (node, gnode) in prog.iter().zip(&mut graph.nodes) {
        gnode.latency = (0..=l_eff).map(|l| node.seconds_at(cost, l)).collect();
    }
    let compile_seconds = t0.elapsed().as_secs_f64();
    let boot_latency = cost.op(OpKind::Bootstrap, l_eff);
    let placement = place(&graph, l_eff, boot_latency);
    let mut c = Compiled {
        prog,
        graph,
        placement,
        opts: opts.clone(),
        acts,
        compile_seconds,
        input_layout,
        plan: ExecPlan::default(),
    };
    c.plan = ExecPlan::build(&c);
    c
}

/// Expands one activation into program nodes; returns the final node id.
fn emit_activation(
    prog: &mut Vec<ProgNode>,
    graph: &mut Graph,
    name: &str,
    act: &CompiledAct,
    input: usize,
    layout: TensorLayout,
    n_cts: usize,
) -> usize {
    let mut push = |suffix: &str, step: Step, inputs: Vec<usize>| -> usize {
        let node = ProgNode {
            name: format!("{name}.{suffix}"),
            step,
            inputs,
            layout,
            n_cts,
        };
        emit(prog, graph, node, NodeKind::Activation)
    };
    match act {
        CompiledAct::Square => push("sq", Step::Square, vec![input]),
        CompiledAct::Poly { range, coeffs } => {
            let factor = 1.0 / range;
            let sd = push("scale", Step::ScaleDown { factor }, vec![input]);
            let step = Step::PolyStage {
                coeffs: coeffs.clone(),
            };
            push("poly", step, vec![sd])
        }
        CompiledAct::Relu { range, stages } => {
            let factor = 1.0 / range;
            let sd = push("scale", Step::ScaleDown { factor }, vec![input]);
            let mut cur = sd;
            for (i, st) in stages.iter().enumerate() {
                let step = Step::PolyStage { coeffs: st.clone() };
                cur = push(&format!("sign{i}"), step, vec![cur]);
            }
            // The fork at `sd` (skip wire) and the sign chain join here: a
            // SESE region the placement solver black-boxes (paper §5.2).
            let step = Step::ReluFinal { magnitude: *range };
            push("mul", step, vec![sd, cur])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fixed_ranges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_opts() -> CompileOptions {
        CompileOptions {
            slots: 512,
            l_eff: 10,
            cost: CostModel::for_degree(1 << 10, 4),
        }
    }

    fn build_mlp(rng: &mut StdRng) -> Network {
        let mut net = Network::new(1, 8, 8);
        let x = net.input();
        let f = net.flatten("flat", x);
        let l1 = net.linear("fc1", f, 32, rng);
        let a1 = net.square("act1", l1);
        let l2 = net.linear("fc2", a1, 10, rng);
        net.output(l2);
        net
    }

    #[test]
    fn compiles_mlp_without_bootstraps() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = build_mlp(&mut rng);
        let c = compile(&net, &fixed_ranges(&net, 2.0), &small_opts());
        // depth: fc1 (1) + square (2) + fc2 (1) = 4 ≤ 10 → no boots.
        assert_eq!(c.placement.boot_count, 0);
        assert!(c.planned_rotations() > 0);
        assert_eq!(c.graph.total_depth(), 4);
    }

    #[test]
    fn compiles_relu_as_sese_region() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(2, 8, 8);
        let x = net.input();
        let cv = net.conv2d("conv", x, 2, 3, 1, 1, 1, &mut rng);
        let a = net.relu("relu", cv, &[15, 15, 27]);
        net.output(a);
        let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
        // relu expands to scale + 3 stages + final mult
        let names: Vec<&str> = c.prog.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"relu.scale"));
        assert!(names.contains(&"relu.sign0"));
        assert!(names.contains(&"relu.sign2"));
        assert!(names.contains(&"relu.mul"));
        // the final mult has two inputs (fork at scale-down)
        let mul = c.prog.iter().find(|p| p.name == "relu.mul").unwrap();
        assert_eq!(mul.inputs.len(), 2);
        // total depth: conv 1 + scale 1 + stages 4+4+5 + final 2 = 17 > 10
        // → bootstraps required
        assert!(c.placement.boot_count >= 1);
    }

    #[test]
    fn bn_folds_into_conv() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new(2, 4, 4);
        let x = net.input();
        let cv = net.conv2d("conv", x, 2, 3, 1, 1, 1, &mut rng);
        let bn = net.batch_norm2d_with(
            "bn",
            cv,
            crate::layer::BnParams {
                gamma: vec![2.0, 0.5],
                beta: vec![0.1, -0.1],
                mean: vec![0.0, 0.0],
                var: vec![1.0 - 1e-5, 1.0 - 1e-5],
                eps: 1e-5,
            },
        );
        net.output(bn);
        let c = compile(&net, &fixed_ranges(&net, 1.0), &small_opts());
        // one conv node only (BN absorbed)
        let convs = c
            .prog
            .iter()
            .filter(|p| matches!(p.step, Step::Conv { .. }))
            .count();
        assert_eq!(convs, 1);
        if let Step::Conv { bias, .. } = &c
            .prog
            .iter()
            .find(|p| matches!(p.step, Step::Conv { .. }))
            .unwrap()
            .step
        {
            assert!((bias[0] - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn residual_network_compiles_with_levels_assigned() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::new(4, 8, 8);
        let x = net.input();
        let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
        let a1 = net.silu("a1", c1, 31);
        let c2 = net.conv2d("c2", a1, 4, 3, 1, 1, 1, &mut rng);
        let add = net.add("res", c2, x);
        let a2 = net.silu("a2", add, 31);
        net.output(a2);
        let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
        for (i, l) in c.placement.levels.iter().enumerate() {
            if c.graph.nodes[i].depth > 0 {
                assert!(l.is_some(), "node {} unassigned", c.prog[i].name);
            }
        }
    }
}
