//! Dataflow execution plans: the compiled step list turned into an
//! explicit DAG of wire-level work units, walked in plan order.
//!
//! The paper's key systems observation is that once bootstrap placement
//! and levels are fixed at compile time, the per-step dependency structure
//! of an FHE inference is fully static. [`ExecPlan::build`] exploits that:
//! `compile` calls it once, after placement, and the program carries the
//! result as [`Compiled::plan`]. It walks the step list once and emits one
//! [`Unit`] per piece of ciphertext → ciphertext work — elementwise steps
//! (activation stages, scale-downs, residual adds) split into one unit per
//! ciphertext, bootstraps become standalone units per refreshed
//! ciphertext, and linear layers stay whole-step units (their internal
//! BSGS parallelism is the prepared executor's job). `Input` and `Output`
//! are not work: the plan records the buffer the caller's ciphertexts go in
//! and the buffer the result is taken from, and reading the input buffer is
//! no dependency. The plan stores no edges: a unit's dependencies are the
//! units that wrote the slots its signature reads ([`Compiled::deps`],
//! derived in one plan-order pass over [`Compiled::unit_io`]) — what it
//! reads *is* its edges. Everything that reads both the plan and the
//! program is a method of [`Compiled`], so no walk, count or check takes a
//! plan beside the program it came from. The carried plan is the plan
//! every engine walks: there is no rewrite between the two, so a linear
//! layer's baby-step rotations are hoisted once per input block inside the
//! layer, never across layers.
//!
//! [`run_plan`] is the one walk — ciphertexts in, ciphertexts out — on any
//! [`EvalBackend`] (whoever owns a tensor encrypts and decrypts it:
//! `crate::backend::run_program`, `FheSession`). It runs the units in plan
//! order on the calling thread: plan order is a topological order and, by
//! construction, exactly the op stream of the classic one-step-at-a-time
//! interpreter, and it is the order the verifier certifies. Parallelism
//! lives inside a linear unit (the BSGS executor's baby-step and
//! giant-group fan-out, block by block — an RNS op's limbs run on the
//! thread that issues it) and across walks (serve workers, batch
//! inference), not between units.
//!
//! The walk holds only what it will read again. What every unit reads is
//! static, so each value slot's last reader is known before the walk
//! starts ([`Compiled::last_reads`]): that unit takes the ciphertext out of
//! its slot and drops its levels in place instead of copying them, and a
//! value nothing reads is released as soon as it is stored; only the
//! output wire is held to the end. The walk counts the limb vectors it
//! holds and returns their high-water mark ([`PlanRun::peak_live_limbs`])
//! — equal on every plan to the peak the verifier certifies
//! (`crate::verify`), which reads the same last readers.
//!
//! Prefetch is an effect of the walk, not a unit. On a pool wider than one
//! thread the walk runs inside a [`rayon::scope`], and a
//! unit about to run first announces the linear layers whose *first*
//! dependency ([`Compiled::deps`]) it is ([`EvalBackend::prefetch_linear`],
//! spawned onto the pool), so a pager loads a layer while its input is
//! still being computed. A layer with no dependency runs before anything
//! could overlap its load and is not announced; on a one-thread pool
//! nothing is.
//!
//! The thread a walk runs on cannot change its results: every unit is a
//! pure function of its input ciphertexts (engines are `&self`,
//! deterministic and hold no per-run state — including the bootstrap
//! oracle, whose noise is derived from the ciphertext being refreshed) and
//! values land in per-(wire, version, ct) slots the walk owns, so one
//! engine serves any number of concurrent walks bit for bit. The op counts
//! never see the walk at all: [`count_plan`] folds the plan's units, in
//! unit order, into the [`OpCounter`] every run carries — linear layers
//! from their BSGS plan, activation steps from the recursion that
//! evaluates them (`orion_poly::eval::StageOps`): what the engine executes.
//!
//! Levels: what a unit reads, at which level, and the level it leaves its
//! output at is a compile-time fact, stated once — [`Step::depth`] /
//! [`Step::sig`] per step kind, lifted to units by [`Compiled::unit_io`]
//! (bootstraps). The walk drops inputs to the signature's read levels,
//! [`count_plan`] tallies its ops, the verifier interprets it
//! (`crate::verify`) — and no engine is trusted to agree with it: every
//! ciphertext an engine hands back is asserted to sit at the signature's
//! exit level before it is stored, and the caller's inputs to arrive at
//! `L_eff`, in every profile.
//!
//! Wire versions: the classic interpreter bootstraps a wire *in place*,
//! so a consumer sees the pre- or post-bootstrap value depending on its
//! program position. The plan makes this explicit — each bootstrap event
//! produces a new version (a fresh buffer) of the wire, and every consumer
//! is wired to the version current at its position. Double bootstraps
//! (two bootstrapping consumers of one wire) replay exactly.

use crate::backend::{EvalBackend, LinearRef};
use crate::compile::{Compiled, Step};
use crate::sim::{OpCounter, OpKind};
use rayon::Scope;
use std::borrow::Cow;

/// What one scheduled unit computes — always work that reads and/or
/// writes ciphertexts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitWork {
    /// A whole linear layer (Conv, Dense): one unit produces the full
    /// output wire (linear layers parallelize internally via the BSGS
    /// executor).
    Step {
        /// Program node id.
        node: usize,
    },
    /// One output ciphertext of an elementwise step (scale-down, poly
    /// stage, relu-final, square, residual add).
    StepCt {
        /// Program node id.
        node: usize,
        /// Ciphertext index within the wire.
        ct: usize,
    },
    /// Bootstrap of one ciphertext of `wire`, placed before `consumer` —
    /// produces the wire's next version.
    Boot {
        /// The wire (program node id) being refreshed.
        wire: usize,
        /// The consumer whose placement entry demanded the refresh.
        consumer: usize,
        /// Ciphertext index within the wire.
        ct: usize,
        /// The value slot being refreshed.
        in_slot: usize,
    },
}

/// One schedulable node of the dataflow plan. It holds no unit id: its
/// dependencies are derived from what it reads ([`Compiled::deps`]).
#[derive(Clone, Debug)]
pub struct Unit {
    /// The work.
    pub work: UnitWork,
    /// First value slot this unit writes.
    pub out_slot: usize,
    /// Number of value slots written.
    pub out_len: usize,
}

/// A value buffer: one (wire, version)'s ciphertexts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Buffer {
    /// First slot index.
    pub offset: usize,
    /// Ciphertext count.
    pub len: usize,
}

impl Buffer {
    /// The buffer's value slots.
    pub fn slots(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// What one plan unit reads, issues and writes — [`Step::sig`] lifted to
/// units ([`Compiled::unit_io`]). Everything that needs a level or an op
/// count asks this: the walk (what to drop inputs to, what the engine must
/// hand back), the op counter and the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitIo {
    /// The level the unit runs — and its ops are priced — at: its step's
    /// placement level, the `L_eff` a `Boot` refreshes to.
    pub level: usize,
    /// The levels the unit needs of `level` ([`Step::depth`]).
    pub depth: usize,
    /// Per input position: the value slots read and the level each is
    /// dropped to first — `None` reads the ciphertext as it sits (a
    /// bootstrap's input).
    pub reads: [Option<(Buffer, Option<usize>)>; 2],
    /// The unit's complete op list as `(kind, count)`: its step's
    /// ([`Step::sig`]) or a `Boot`'s one bootstrap. [`count_plan`] prices
    /// it; nothing re-derives ops from [`UnitWork`].
    pub ops: Vec<(OpKind, u64)>,
    /// The level of every ciphertext the unit writes.
    pub out_level: usize,
}

impl UnitIo {
    /// How many ops of `kind` the unit issues.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.ops
            .iter()
            .filter(|op| op.0 == kind)
            .map(|op| op.1)
            .sum()
    }
}

/// An evaluation key a unit applies ([`Compiled::for_each_key_use`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyUse {
    /// The rotation key for this slot step.
    Rotation(isize),
    /// The relinearization key.
    Relin,
}

/// The dataflow execution plan of one compiled program (see module docs),
/// carried by it as [`Compiled::plan`]. `Default` is the empty plan
/// `compile` holds while it builds the real one.
#[derive(Clone, Default)]
pub struct ExecPlan {
    /// Units in a topological order (every slot a unit reads is written
    /// before it runs).
    pub units: Vec<Unit>,
    /// Input buffers per program node, per input position — the (wire,
    /// version) each consumer reads, bootstrap rewrites applied.
    pub(crate) in_bufs: Vec<Vec<Buffer>>,
    /// Where a walk stores the caller's ciphertexts: the `Input` node's
    /// wire, which no unit writes.
    pub input: Buffer,
    /// Where a walk takes its result from: the wire version the `Output`
    /// node reads.
    pub output: Buffer,
    /// Total value slots.
    pub(crate) n_slots: usize,
}

impl ExecPlan {
    /// Compiles the step list + placement into the unit DAG — what
    /// [`crate::compile::compile`] stores as [`Compiled::plan`], once
    /// placement has fixed every level.
    pub fn build(c: &Compiled) -> Self {
        let slots = c.opts.slots;
        let mut units: Vec<Unit> = Vec::new();
        let mut n_slots = 0usize;
        let mut alloc = |len: usize| -> Buffer {
            let b = Buffer {
                offset: n_slots,
                len,
            };
            n_slots += len;
            b
        };
        // Current buffer of every wire.
        let mut cur_buf: Vec<Option<Buffer>> = vec![None; c.prog.len()];
        let mut in_bufs: Vec<Vec<Buffer>> = Vec::with_capacity(c.prog.len());
        let (mut input, mut output) = (None, None);

        for (id, node) in c.prog.iter().enumerate() {
            // Bootstrap events: rewrite each input wire to a new version,
            // one unit per ciphertext — exactly the classic interpreter's
            // in-place refresh, made explicit.
            if c.placement.boots_before[id] > 0 {
                for &w in &node.inputs {
                    let old = cur_buf[w].expect("bootstrapping an unproduced wire");
                    let new = alloc(old.len);
                    for ct in 0..old.len {
                        units.push(Unit {
                            work: UnitWork::Boot {
                                wire: w,
                                consumer: id,
                                ct,
                                in_slot: old.offset + ct,
                            },
                            out_slot: new.offset + ct,
                            out_len: 1,
                        });
                    }
                    cur_buf[w] = Some(new);
                }
            }
            let ins: Vec<Buffer> = node
                .inputs
                .iter()
                .map(|&w| cur_buf[w].expect("wire consumed before production"))
                .collect();
            let n_out = node.n_cts.max(1);
            match &node.step {
                // Not work: where the caller's ciphertexts go, and where
                // the result is taken from.
                Step::Input => {
                    let buf = alloc(node.layout.num_ciphertexts(slots));
                    cur_buf[id] = Some(buf);
                    input = Some(buf);
                }
                Step::Output => output = ins.first().copied(),
                Step::Conv { .. } | Step::Dense { .. } => {
                    let out = alloc(n_out);
                    units.push(Unit {
                        work: UnitWork::Step { node: id },
                        out_slot: out.offset,
                        out_len: out.len,
                    });
                    cur_buf[id] = Some(out);
                }
                Step::ScaleDown { .. }
                | Step::PolyStage { .. }
                | Step::Square
                | Step::Add
                | Step::ReluFinal { .. } => {
                    // Elementwise: output ct j reads only input ct j of
                    // every input wire.
                    for b in &ins {
                        assert_eq!(
                            b.len, n_out,
                            "elementwise step {id} with mismatched wire widths"
                        );
                    }
                    let out = alloc(n_out);
                    for ct in 0..n_out {
                        units.push(Unit {
                            work: UnitWork::StepCt { node: id, ct },
                            out_slot: out.offset + ct,
                            out_len: 1,
                        });
                    }
                    cur_buf[id] = Some(out);
                }
            }
            in_bufs.push(ins);
        }

        Self {
            units,
            in_bufs,
            input: input.expect("program has no input node"),
            output: output.expect("program has no output node"),
            n_slots,
        }
    }

    /// Total value slots the plan writes.
    pub fn value_slots(&self) -> usize {
        self.n_slots
    }
}

/// What reads both the plan and the program it came from: a unit's
/// signature, its dependencies, each slot's last reader and the keys a
/// unit applies — all derived from [`Compiled::plan`], never stored.
impl Compiled {
    /// What unit `uid` of [`Compiled::plan`] reads and writes under the
    /// program's placement: the step's [`Step::sig`] plus what only the
    /// plan knows — a bootstrap's raw read and `L_eff` exit; nothing
    /// overrides a signature's exit level. Computed on demand, so a test
    /// that mutates a clone's plan or placement reads the mutation; `Err`
    /// names what the unit refers to that the program or plan does not have
    /// — the verifier's coverage finding, a panic anywhere else.
    pub fn unit_io(&self, uid: usize) -> Result<UnitIo, &'static str> {
        let unit = &self.plan.units[uid];
        let mut io = UnitIo {
            level: 0,
            depth: 0,
            reads: [None; 2],
            ops: Vec::new(),
            // where a bootstrap lands; a placed step overwrites it with
            // its signature's exit
            out_level: self.opts.l_eff,
        };
        match unit.work {
            UnitWork::Boot { wire, in_slot, .. } => {
                if wire >= self.prog.len() {
                    return Err("bootstrap refreshes a wire outside the program");
                }
                let refreshed = Buffer {
                    offset: in_slot,
                    len: 1,
                };
                io.level = self.opts.l_eff;
                io.reads[0] = Some((refreshed, None));
                io.ops = vec![(OpKind::Bootstrap, 1)];
            }
            UnitWork::Step { node } | UnitWork::StepCt { node, .. } => {
                let step = &self.prog.get(node).ok_or("unknown program node")?.step;
                let bufs = self.plan.in_bufs.get(node);
                let bufs = bufs.ok_or("step has no input buffers")?;
                if matches!(step, Step::Input | Step::Output) {
                    return Err("input and output nodes are not work: they have no unit");
                }
                let whole = matches!(step, Step::Conv { .. } | Step::Dense { .. });
                if whole != matches!(unit.work, UnitWork::Step { .. }) {
                    return Err("step kind does not fit the unit kind");
                }
                let lv = self.placement.levels.get(node).copied().flatten();
                let lv = lv.ok_or("step has no placement level")?;
                let sig = step.sig(lv);
                io.level = lv;
                io.depth = step.depth();
                io.ops = sig.ops;
                io.out_level = sig.exit_level;
                for (pos, level) in sig.reads.iter().enumerate() {
                    let Some(level) = *level else { continue };
                    let mut b = *bufs.get(pos).ok_or("step lacks an input buffer")?;
                    // an elementwise unit reads its own ciphertext of
                    // every input wire
                    if let UnitWork::StepCt { ct, .. } = unit.work {
                        if ct >= b.len {
                            return Err("input wire has no such ciphertext");
                        }
                        b = Buffer {
                            offset: b.offset + ct,
                            len: 1,
                        };
                    }
                    io.reads[pos] = Some((b, Some(level)));
                }
            }
        }
        Ok(io)
    }

    /// [`Compiled::unit_io`] of a plan the verifier has passed.
    pub(crate) fn io(&self, uid: usize) -> UnitIo {
        self.unit_io(uid)
            .unwrap_or_else(|why| panic!("malformed plan, unit {uid}: {why}"))
    }

    /// Every unit's dependencies, derived from what it reads: the units
    /// that wrote the slots of its [`UnitIo::reads`] (in read order, without
    /// consecutive repeats). Reading the input wire is no dependency. One
    /// plan-order pass over [`Compiled::unit_io`] with a slot → producer
    /// table, so a dependency always precedes its unit; panics on a unit
    /// the plan cannot describe (the verifier's coverage finding).
    pub fn deps(&self) -> Vec<Vec<usize>> {
        let plan = &self.plan;
        let mut producer: Vec<Option<usize>> = vec![None; plan.n_slots];
        let mut all = Vec::with_capacity(plan.units.len());
        for (uid, unit) in plan.units.iter().enumerate() {
            let io = self.io(uid);
            let read = io.reads.iter().flatten().flat_map(|(buf, _)| buf.slots());
            let mut deps: Vec<usize> = Vec::new();
            for d in read.filter_map(|s| producer[s]) {
                if deps.last() != Some(&d) {
                    deps.push(d);
                }
            }
            all.push(deps);
            producer[unit.out_slot..unit.out_slot + unit.out_len].fill(Some(uid));
        }
        all
    }

    /// Every value slot's last reader: the last unit whose
    /// [`UnitIo::reads`] name the slot, in one plan-order pass — `None` for
    /// the output buffer's slots (a walk hands them back) and for slots
    /// nothing reads. A walk releases a slot once its last reader has run
    /// and the verifier's peak-live-limb certificate stops counting it
    /// there: one liveness, read by both. Panics on a unit the plan cannot
    /// describe (the verifier's coverage finding).
    pub fn last_reads(&self) -> Vec<Option<usize>> {
        let mut last = vec![None; self.plan.n_slots];
        for uid in 0..self.plan.units.len() {
            for (buf, _) in self.io(uid).reads.iter().flatten() {
                last[buf.slots()].fill(Some(uid));
            }
        }
        last[self.plan.output.slots()].fill(None);
        last
    }

    /// Calls `f(key, level)` for every evaluation key unit `uid` applies,
    /// with the level of the ciphertext it applies it to, given the unit's
    /// `io`: a linear layer every step of its BSGS plan, at the level the
    /// input is read at; an activation unit that
    /// multiplies ciphertexts the relinearization key, at the level it
    /// enters the stage (every product of a stage sits at or below it).
    /// Key generation ([`Compiled::key_manifest`]) and the verifier's
    /// coverage pass both read this, so what is generated is what is
    /// certified.
    pub fn for_each_key_use(&self, uid: usize, io: &UnitIo, mut f: impl FnMut(KeyUse, usize)) {
        let read = io.reads[0].and_then(|(_, level)| level);
        match self.plan.units[uid].work {
            UnitWork::Step { node } => {
                let step = &self.prog[node].step;
                let (Some(layer), Some(lv)) = (LinearRef::of(node, step), read) else {
                    return;
                };
                for k in layer.plan().rotation_steps() {
                    f(KeyUse::Rotation(k), lv);
                }
            }
            UnitWork::StepCt { .. } if io.count(OpKind::HMult) > 0 => f(KeyUse::Relin, io.level),
            UnitWork::StepCt { .. } | UnitWork::Boot { .. } => {}
        }
    }
}

/// Limb vectors one ciphertext at `level` holds: two polynomials of
/// `level + 1` rows — the unit of the walk's measured peak and of the
/// verifier's certificate.
pub(crate) fn ct_limbs(level: usize) -> u64 {
    2 * (level as u64 + 1)
}

/// The op tallies of one walk of `c`'s plan, with modeled latency — the
/// paper's "# Rots" / "# Boots" columns. Levels, bootstraps and every
/// linear layer's BSGS split are fixed at compile time, so the tallies are
/// a fold over the units: one counter per unit (its ops in execution
/// order), merged in ascending unit order, which fixes the accumulated
/// `f64` seconds bit for bit whatever engine runs the plan. The engine is
/// asked only which steps it serves from a prepared cache (those pay no
/// per-inference encodes).
pub fn count_plan<B: EvalBackend>(c: &Compiled, backend: &B) -> OpCounter {
    let mut total = OpCounter::new();
    for (uid, unit) in c.plan.units.iter().enumerate() {
        let io = c.io(uid);
        let mut ctr = OpCounter::priced(&io.ops, &c.opts.cost, io.level);
        match unit.work {
            UnitWork::Step { node } => {
                ctr.linear_seconds = ctr.seconds;
                // On-the-fly engines also pay one slot-vector encode per
                // diagonal pmult plus one per output block (bias).
                if backend.linear_encodes_per_inference(node) {
                    let layer = LinearRef::of(node, &c.prog[node].step)
                        .expect("a whole-step unit is a linear layer")
                        .plan();
                    ctr.record_encodes((layer.counts.pmults + layer.out_blocks) as u64);
                }
            }
            UnitWork::StepCt { .. } | UnitWork::Boot { .. } => {}
        }
        total.merge(&ctr);
    }
    total
}

/// Static span kind plus (node-or-wire, ct) identifiers for a unit.
fn unit_meta(work: &UnitWork) -> (&'static str, u64, u64) {
    match *work {
        UnitWork::Step { node } => ("step", node as u64, 0),
        UnitWork::StepCt { node, ct } => ("step_ct", node as u64, ct as u64),
        UnitWork::Boot { wire, ct, .. } => ("boot", wire as u64, ct as u64),
    }
}

/// `kind name ctN` of a unit, for reports and assert messages.
fn unit_label(c: &Compiled, work: &UnitWork) -> String {
    let (kind, node, ct) = unit_meta(work);
    format!("{kind} {} ct{ct}", c.prog[node as usize].name)
}

const NOT_READY: &str = "scheduler dependency violation: value not ready or already released";

struct RunState<'a, B: EvalBackend> {
    c: &'a Compiled,
    backend: &'a B,
    /// One slot per value, written once — by the caller's input or by the
    /// unit producing it — read by its consumers and emptied once the last
    /// of them has run ([`Compiled::last_reads`]); the output wire's slots
    /// are held until the walk returns.
    values: Vec<Option<B::Ciphertext>>,
    /// Per value slot: the unit that reads it last.
    last_read: Vec<Option<usize>>,
    /// Limb vectors held ([`ct_limbs`] per stored ciphertext), the inputs
    /// moved into the running unit included.
    live_limbs: u64,
    /// The running unit's moved inputs' share of `live_limbs`, released
    /// once its outputs are stored.
    moved_limbs: u64,
    /// High-water mark of `live_limbs`, sampled after each unit's store.
    peak_limbs: u64,
    /// Per-unit execution nanoseconds, `Some` iff the telemetry collector
    /// was enabled when the run started; `None` keeps the disabled walk
    /// free of clock reads.
    exec_ns: Option<Vec<u64>>,
}

impl<'a, B: EvalBackend + Sync> RunState<'a, B> {
    /// Runs every unit in plan order. With `announce`, a unit first spawns
    /// onto it the prefetch of each linear layer whose first dependency it
    /// is — once per layer, while the layer's input is being computed.
    fn walk<'s>(&mut self, announce: Option<&Scope<'s>>)
    where
        'a: 's,
    {
        let (c, backend) = (self.c, self.backend);
        // per unit: the layers whose first dependency it is
        let mut layers: Vec<Vec<usize>> = vec![Vec::new(); c.plan.units.len()];
        if announce.is_some() {
            for (uid, deps) in c.deps().iter().enumerate() {
                if let (UnitWork::Step { node }, Some(&first)) =
                    (&c.plan.units[uid].work, deps.first())
                {
                    layers[first].push(*node);
                }
            }
        }
        for (uid, layers) in layers.iter().enumerate() {
            if let Some(s) = announce {
                for &node in layers {
                    s.spawn(move |_| backend.prefetch_linear(node));
                }
            }
            self.run_unit(uid);
        }
    }

    fn value(&self, slot: usize) -> &B::Ciphertext {
        self.values[slot].as_ref().expect(NOT_READY)
    }

    /// Input `pos` of unit `uid`: its slots' ciphertexts, dropped to the
    /// read level the signature states, asserting the placement invariant
    /// like the classic interpreter. A slot the unit reads last — and at no
    /// later input position — is moved into the drop; any other is
    /// borrowed.
    fn read(&mut self, uid: usize, io: &UnitIo, pos: usize) -> Vec<B::Ciphertext> {
        let (buf, level) = io.reads[pos].expect("unit has no such input");
        let level = level.expect("a bootstrap reads its slot directly");
        let backend = self.backend;
        let read_again = |s: usize| {
            (io.reads[pos + 1..].iter().flatten()).any(|(later, _)| later.slots().contains(&s))
        };
        buf.slots()
            .map(|s| {
                let ct = if self.last_read[s] == Some(uid) && !read_again(s) {
                    let ct = self.values[s].take().expect(NOT_READY);
                    self.moved_limbs += ct_limbs(backend.level_of(&ct));
                    Cow::Owned(ct)
                } else {
                    Cow::Borrowed(self.value(s))
                };
                assert!(
                    backend.level_of(&ct) >= level,
                    "wire at level {} but the policy needs {level} — placement violated",
                    backend.level_of(&ct)
                );
                backend.drop_to_level(ct, level)
            })
            .collect()
    }

    fn store(&mut self, uid: usize, io: &UnitIo, cts: Vec<B::Ciphertext>) {
        let unit = &self.c.plan.units[uid];
        // hard assert: a backend returning the wrong ciphertext count
        // must fail HERE, not corrupt a neighboring wire's value slots
        assert_eq!(
            cts.len(),
            unit.out_len,
            "backend produced {} ciphertexts for a unit expecting {}",
            cts.len(),
            unit.out_len
        );
        for (i, ct) in cts.into_iter().enumerate() {
            // The engine is checked against the level table, not trusted
            // to mirror it: what the verifier certified for this slot is
            // what gets written, in every profile.
            assert_eq!(
                self.backend.level_of(&ct),
                io.out_level,
                "unit {uid} ({}) wrote ciphertext {i} at the wrong level",
                unit_label(self.c, &unit.work)
            );
            // Wire trajectory: the FHE "noise budget" view — every produced
            // ciphertext's level and scale drift, as instant events.
            if self.exec_ns.is_some() {
                let (_, node, _) = unit_meta(&unit.work);
                orion_telemetry::instant!(
                    "wire",
                    node = node,
                    ct = i,
                    level = io.out_level,
                    scale_mb = (self.backend.scale_log2_of(&ct) * 1e3) as u64
                );
            }
            self.live_limbs += ct_limbs(io.out_level);
            let old = self.values[unit.out_slot + i].replace(ct);
            assert!(old.is_none(), "scheduler wrote a value slot twice");
        }
    }

    /// After unit `uid` has stored its outputs: samples the live-limb peak,
    /// then releases what no later unit reads — the inputs it moved, the
    /// other slots it read last and its outputs nothing reads (the output
    /// wire's excepted).
    fn release(&mut self, uid: usize, io: &UnitIo) {
        self.peak_limbs = self.peak_limbs.max(self.live_limbs);
        self.live_limbs -= std::mem::take(&mut self.moved_limbs);
        let (plan, backend) = (&self.c.plan, self.backend);
        let unit = &plan.units[uid];
        let last_read = &self.last_read;
        let read = io.reads.iter().flatten().flat_map(|(buf, _)| buf.slots());
        let unread = (unit.out_slot..unit.out_slot + unit.out_len)
            .filter(|&s| last_read[s].is_none() && !plan.output.slots().contains(&s));
        for s in read.filter(|&s| last_read[s] == Some(uid)).chain(unread) {
            if let Some(ct) = self.values[s].take() {
                self.live_limbs -= ct_limbs(backend.level_of(&ct));
            }
        }
    }

    fn run_unit(&mut self, uid: usize) {
        let io = self.c.io(uid);
        if self.exec_ns.is_none() {
            self.exec_unit(uid, &io);
            return self.release(uid, &io);
        }
        let start = orion_telemetry::now_ns();
        let (kind, node, ct) = unit_meta(&self.c.plan.units[uid].work);
        let span = orion_telemetry::span(
            kind,
            &[
                ("unit", uid as u64),
                ("node", node),
                ("ct", ct),
                ("level", io.level as u64),
                ("out_level", io.out_level as u64),
            ],
        );
        self.exec_unit(uid, &io);
        let end = orion_telemetry::now_ns();
        drop(span);
        if let Some(exec_ns) = &mut self.exec_ns {
            exec_ns[uid] = end.saturating_sub(start);
        }
        self.release(uid, &io);
    }

    fn exec_unit(&mut self, uid: usize, io: &UnitIo) {
        let (backend, c) = (self.backend, self.c);
        let unit = &c.plan.units[uid];
        let lv = io.level;
        assert!(
            lv >= io.depth,
            "unit {uid} ({}) needs {} levels, placed at level {lv}",
            unit_label(c, &unit.work),
            io.depth
        );
        match unit.work {
            UnitWork::Boot { in_slot, .. } => {
                let out = backend.bootstrap(self.value(in_slot));
                self.store(uid, io, vec![out]);
            }
            UnitWork::Step { node } => {
                let layer = LinearRef::of(node, &c.prog[node].step)
                    .expect("a whole-step unit is a linear layer");
                let cts = self.read(uid, io, 0);
                let out =
                    orion_telemetry::time_class(orion_telemetry::OpClass::LinearLayer, || {
                        backend.linear_layer(&layer, &cts, lv)
                    });
                self.store(uid, io, out);
            }
            UnitWork::StepCt { node, .. } => {
                // an elementwise unit reads one ciphertext per input
                let mut x = |pos: usize| self.read(uid, io, pos).pop().expect("one-slot read");
                let out = match &c.prog[node].step {
                    Step::ScaleDown { factor } => backend.scale_down(&x(0), *factor, lv),
                    Step::PolyStage { coeffs } => {
                        orion_telemetry::time_class(orion_telemetry::OpClass::PolyStage, || {
                            backend.poly_stage(&x(0), coeffs, lv)
                        })
                    }
                    Step::ReluFinal { magnitude } => {
                        backend.relu_final(&x(0), &x(1), *magnitude, lv)
                    }
                    Step::Square => backend.square_activation(&x(0), lv),
                    Step::Add => backend.add(&x(0), &x(1)),
                    other => panic!("step {other:?} is not an elementwise unit"),
                };
                self.store(uid, io, vec![out]);
            }
        }
    }
}

/// What a walk hands back.
pub struct PlanRun<Ct> {
    /// The output wire, moved out of the plan's output buffer.
    pub output_wire: Vec<Ct>,
    /// The plan's op tallies with modeled latency ([`count_plan`]).
    pub counter: OpCounter,
    /// The most limb vectors the walk held at once: `2·(level + 1)` per
    /// ciphertext at the level it was stored at, sampled after each unit
    /// has stored its outputs (with the inputs it moved still counted).
    /// Equal on every plan to the verifier's certificate,
    /// [`VerifyReport::peak_limbs`](crate::verify::VerifyReport::peak_limbs).
    pub peak_live_limbs: u64,
}

/// Walks `c`'s plan on `backend` over `inputs` — one ciphertext per slot
/// of [`ExecPlan::input`], each at `L_eff` — in plan order on the calling
/// thread, and returns the output wire. Every other value is released once
/// its last reader has run (module docs). On a pool wider than one thread
/// the walk announces upcoming linear layers for prefetch; a unit's panic
/// is rethrown once those announcements have drained.
pub fn run_plan<B: EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    inputs: Vec<B::Ciphertext>,
) -> PlanRun<B::Ciphertext> {
    let plan = &c.plan;
    assert_eq!(
        backend.slots(),
        c.opts.slots,
        "backend/program slot-count mismatch"
    );
    assert_eq!(
        inputs.len(),
        plan.input.len,
        "input ciphertext count does not match the program's input wire"
    );
    let mut state = RunState {
        c,
        backend,
        values: vec![None; plan.n_slots],
        last_read: c.last_reads(),
        live_limbs: 0,
        moved_limbs: 0,
        peak_limbs: 0,
        exec_ns: orion_telemetry::enabled().then(|| vec![0; plan.units.len()]),
    };
    for (slot, ct) in plan.input.slots().zip(inputs) {
        assert_eq!(
            backend.level_of(&ct),
            c.opts.l_eff,
            "input ciphertext at the wrong level (the input wire arrives at L_eff)"
        );
        // an input ciphertext nothing reads is released as it arrives
        if state.last_read[slot].is_some() || plan.output.slots().contains(&slot) {
            state.live_limbs += ct_limbs(c.opts.l_eff);
            state.values[slot] = Some(ct);
        }
    }
    let wall_start = state.exec_ns.as_ref().map(|_| orion_telemetry::now_ns());
    let run_span = state
        .exec_ns
        .as_ref()
        .map(|_| orion_telemetry::span!("run_plan", units = plan.units.len()));
    if rayon::current_num_threads() > 1 {
        rayon::scope(|s| state.walk(Some(s)));
    } else {
        state.walk(None);
    }
    drop(run_span);
    if let (Some(exec_ns), Some(t0)) = (&state.exec_ns, wall_start) {
        report_run(c, exec_ns, orion_telemetry::now_ns() - t0, state.peak_limbs);
    }
    let output_wire = plan
        .output
        .slots()
        .map(|slot| state.values[slot].take().expect("output wire not produced"))
        .collect();
    PlanRun {
        output_wire,
        counter: count_plan(c, backend),
        peak_live_limbs: state.peak_limbs,
    }
}

/// Builds and records the telemetry [`orion_telemetry::RunReport`] of a
/// finished walk from its per-unit execution times: their sum, the
/// duration-weighted critical path through the unit DAG, and the heaviest
/// units on it — plus the walk's measured peak live limbs.
fn report_run(c: &Compiled, dur: &[u64], wall_ns: u64, peak_live_limbs: u64) {
    let plan = &c.plan;
    let deps = c.deps();
    let deps: Vec<&[usize]> = deps.iter().map(Vec::as_slice).collect();
    let (critical_path_ns, mut on_path) = orion_telemetry::critical_path(dur, &deps);
    on_path.sort_by_key(|&u| std::cmp::Reverse(dur[u]));
    let top: Vec<orion_telemetry::CritUnit> = on_path
        .iter()
        .take(10)
        .map(|&u| orion_telemetry::CritUnit {
            unit: u,
            label: unit_label(c, &plan.units[u].work),
            dur_ns: dur[u],
        })
        .collect();
    orion_telemetry::record_run(orion_telemetry::RunReport {
        req: orion_telemetry::current_request(),
        threads: rayon::current_num_threads(),
        units: plan.units.len(),
        wall_ns,
        busy_ns: dur.iter().sum(),
        queue_ns: 0,
        critical_path_ns,
        peak_live_limbs,
        top,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::fit::fixed_ranges;
    use crate::network::Network;
    use crate::sim::CostModel;
    use orion_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts() -> CompileOptions {
        CompileOptions {
            slots: 256,
            l_eff: 10,
            cost: CostModel::for_degree(1 << 9, 4),
        }
    }

    /// conv → ReLU → conv, closed by a residual add of the input wire whose
    /// join is made to refresh both its inputs — so the plan, rebuilt for
    /// the changed placement, bootstraps ciphertexts no unit produced.
    fn residual_refreshing_the_input(seed: u64) -> Compiled {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(4, 8, 8);
        let x = net.input();
        let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
        let a1 = net.relu("a1", c1, &[15, 15, 27]);
        let c2 = net.conv2d("c2", a1, 4, 3, 1, 1, 1, &mut rng);
        let add = net.add("res", c2, x);
        net.output(add);
        let mut c = compile(&net, &fixed_ranges(&net, 4.0), &opts());
        assert!(c.placement.boot_count > 0, "want a bootstrap-deep plan");
        let join = c.prog.iter().position(|p| matches!(p.step, Step::Add));
        c.placement.boots_before[join.unwrap()] = 1;
        c.plan = ExecPlan::build(&c);
        c
    }

    #[test]
    fn plan_is_topologically_ordered_and_covers_every_step() {
        let c = residual_refreshing_the_input(7);
        let plan = &c.plan;
        let report = crate::verify::verify_compiled(&c, &Default::default());
        assert!(!report.has_errors(), "{}", report.table());
        // deps strictly precede (plan order is topological)
        let deps = c.deps();
        for (uid, deps) in deps.iter().enumerate() {
            for &d in deps {
                assert!(d < uid, "unit {uid} depends on later unit {d}");
            }
        }
        // every program node that is work appears as a unit; the input
        // and the output are buffers, not units
        for (id, p) in c.prog.iter().enumerate() {
            let covered = plan.units.iter().any(|u| {
                matches!(
                    u.work,
                    UnitWork::Step { node } | UnitWork::StepCt { node, .. } if node == id
                )
            });
            let work = !matches!(p.step, Step::Input | Step::Output);
            assert_eq!(covered, work, "node {id} ({}) coverage", p.name);
        }
        assert_eq!(plan.input.len, c.prog[0].n_cts);
        assert_eq!(plan.output, *plan.in_bufs.last().unwrap().first().unwrap());
        // bootstrap units match the placement's count
        let is_boot = |u: &&Unit| matches!(u.work, UnitWork::Boot { .. });
        assert_eq!(plan.units.iter().filter(is_boot).count() as u64, {
            let mut n = 0u64;
            for (id, node) in c.prog.iter().enumerate() {
                if c.placement.boots_before[id] > 0 {
                    for &w in &node.inputs {
                        n += c.prog[w].n_cts.max(1) as u64;
                    }
                }
            }
            n
        });
        // the caller provides the input wire: reading it is no dependency
        // (the first conv), refreshing it neither (the residual's bootstrap)
        assert!(deps[0].is_empty());
        let input_boots: Vec<usize> = (0..plan.units.len())
            .filter(|&u| {
                matches!(plan.units[u].work, UnitWork::Boot { in_slot, .. }
                    if plan.input.slots().contains(&in_slot))
            })
            .collect();
        assert!(!input_boots.is_empty(), "want the input wire refreshed");
        assert!(input_boots.iter().all(|&u| deps[u].is_empty()));
    }

    #[test]
    fn a_unit_panic_propagates_out_of_the_walk() {
        use crate::backend::encrypt_input;
        use crate::backends::ClearBackend;
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Network::new(4, 8, 8);
        let x = net.input();
        let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
        let a1 = net.square("a1", c1);
        let c2 = net.conv2d("c2", a1, 4, 3, 1, 1, 1, &mut rng);
        net.output(c2);
        let mut c = compile(&net, &fixed_ranges(&net, 4.0), &opts());
        // a level no wire can have → the square's first unit panics right
        // after announcing c2 (on a wide pool the walk runs inside its
        // prefetch scope); the walk must rethrow instead of hanging
        let square = c.prog.iter().position(|p| matches!(p.step, Step::Square));
        c.placement.levels[square.unwrap()] = Some(c.opts.l_eff + 1);
        let backend = ClearBackend::packed(&c);
        let cts = encrypt_input(&c, &backend, &Tensor::from_vec(&[4, 8, 8], vec![0.5; 256]));
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_plan(&c, &backend, cts)));
        assert!(r.is_err(), "unit panic must propagate to the caller");
    }

    #[test]
    #[should_panic(expected = "input ciphertext count")]
    fn a_short_input_wire_is_refused_by_count() {
        let c = residual_refreshing_the_input(17);
        let backend = crate::backends::ClearBackend::packed(&c);
        // the wire is one ciphertext wide
        run_plan(&c, &backend, Vec::new());
    }

    #[test]
    #[should_panic(expected = "input ciphertext at the wrong level")]
    fn an_input_below_l_eff_is_refused_by_level() {
        let c = residual_refreshing_the_input(17);
        let backend = crate::backends::ClearBackend::packed(&c);
        let low = vec![backend.encrypt(&[], c.opts.l_eff - 1)];
        run_plan(&c, &backend, low);
    }
}
