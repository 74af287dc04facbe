//! Operation counters: the statistics behind the paper's "# Rots" and
//! "# Boots" columns (Tables 2–4).

use super::cost::CostModel;
use std::collections::BTreeMap;

/// Kinds of homomorphic operations tallied during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Ciphertext + ciphertext.
    HAdd,
    /// Ciphertext + plaintext.
    PAdd,
    /// Ciphertext × plaintext.
    PMult,
    /// Ciphertext × ciphertext (with relinearization).
    HMult,
    /// Full (non-hoisted) rotation.
    HRot,
    /// Hoisted rotation (digit decomposition shared).
    HRotHoisted,
    /// One digit decomposition (the hoisted prefix).
    Hoist,
    /// Deferred ModDown (double-hoisting, once per giant-step group).
    ModDown,
    /// Rescale.
    Rescale,
    /// Bootstrap.
    Bootstrap,
}

impl OpKind {
    /// All kinds, in `Ord` order.
    pub const ALL: [OpKind; 10] = [
        OpKind::HAdd,
        OpKind::PAdd,
        OpKind::PMult,
        OpKind::HMult,
        OpKind::HRot,
        OpKind::HRotHoisted,
        OpKind::Hoist,
        OpKind::ModDown,
        OpKind::Rescale,
        OpKind::Bootstrap,
    ];
}

/// Tallies operations and accumulates modeled latency.
#[derive(Clone, Debug, Default)]
pub struct OpCounter {
    counts: BTreeMap<OpKind, u64>,
    /// Total modeled latency (seconds).
    pub seconds: f64,
    /// Modeled latency attributed to linear layers (convolutions +
    /// fully-connected), for Table 4's "Convs. (s)" column.
    pub linear_seconds: f64,
    /// Modeled latency attributed to bootstrapping.
    pub bootstrap_seconds: f64,
    /// Per-inference plaintext encodes. The on-the-fly linear path encodes
    /// every weight diagonal and bias block per request (inverse FFT + NTT
    /// per limb); the prepared path pays them once at setup, so this field
    /// is **zero** per inference there. Nothing else encodes: activation
    /// and scale-down constants are scalars, not plaintexts.
    pub encodes: u64,
}

impl OpCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tally of one op list — `(kind, count)` pairs, a plan unit's
    /// `unit_io(..).ops` — evaluated at `level`, every op at its one price
    /// [`CostModel::op`]. What a node costs placement, what `count_plan`
    /// merges per unit and what a report prints are all this function, so
    /// modeled and counted seconds cannot disagree.
    pub fn priced(ops: &[(OpKind, u64)], cost: &CostModel, level: usize) -> Self {
        let mut ctr = Self::new();
        for &(kind, n) in ops {
            ctr.record(kind, n, n as f64 * cost.op(kind, level));
        }
        ctr
    }

    /// Records `n` occurrences of `kind` with total latency `secs`.
    pub fn record(&mut self, kind: OpKind, n: u64, secs: f64) {
        *self.counts.entry(kind).or_insert(0) += n;
        self.seconds += secs;
        if kind == OpKind::Bootstrap {
            self.bootstrap_seconds += secs;
        }
    }

    /// Records `n` per-inference plaintext encodes (see
    /// [`OpCounter::encodes`]).
    pub fn record_encodes(&mut self, n: u64) {
        self.encodes += n;
    }

    /// Count of a given kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total rotations: the paper's "# Rots" counts every ciphertext
    /// rotation, hoisted or not (Table 2).
    pub fn rotations(&self) -> u64 {
        self.count(OpKind::HRot) + self.count(OpKind::HRotHoisted)
    }

    /// Number of bootstrap invocations.
    pub fn bootstraps(&self) -> u64 {
        self.count(OpKind::Bootstrap)
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &OpCounter) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.seconds += other.seconds;
        self.linear_seconds += other.linear_seconds;
        self.bootstrap_seconds += other.bootstrap_seconds;
        self.encodes += other.encodes;
    }

    /// All counts, for reports.
    pub fn all(&self) -> &BTreeMap<OpKind, u64> {
        &self.counts
    }

    /// Per-kind difference `self − baseline`, saturating at zero, with the
    /// latency/encode fields subtracted the same way. Call on the larger
    /// counter — e.g. an on-the-fly run's tallies against a prepared run's
    /// yield the encodes the cache saved — so assertions and reports read
    /// as deltas instead of hand-rolled per-kind subtraction.
    pub fn diff(&self, baseline: &OpCounter) -> OpCounter {
        let mut counts = BTreeMap::new();
        for &k in OpKind::ALL.iter() {
            let d = self.count(k).saturating_sub(baseline.count(k));
            if d > 0 {
                counts.insert(k, d);
            }
        }
        OpCounter {
            counts,
            seconds: self.seconds - baseline.seconds,
            linear_seconds: self.linear_seconds - baseline.linear_seconds,
            bootstrap_seconds: self.bootstrap_seconds - baseline.bootstrap_seconds,
            encodes: self.encodes.saturating_sub(baseline.encodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = OpCounter::new();
        c.record(OpKind::HRot, 3, 0.3);
        c.record(OpKind::HRotHoisted, 5, 0.05);
        c.record(OpKind::Bootstrap, 1, 10.0);
        assert_eq!(c.rotations(), 8);
        assert_eq!(c.bootstraps(), 1);
        assert!((c.seconds - 10.35).abs() < 1e-12);
        assert!((c.bootstrap_seconds - 10.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OpCounter::new();
        a.record(OpKind::PMult, 2, 0.1);
        a.record_encodes(2);
        let mut b = OpCounter::new();
        b.record(OpKind::PMult, 3, 0.2);
        b.record(OpKind::HRot, 1, 0.05);
        b.record_encodes(3);
        a.merge(&b);
        assert_eq!(a.count(OpKind::PMult), 5);
        assert_eq!(a.rotations(), 1);
        assert_eq!(a.encodes, 5);
        assert!((a.seconds - 0.35).abs() < 1e-12);
    }

    #[test]
    fn diff_reports_saturating_deltas() {
        let mut unopt = OpCounter::new();
        unopt.record(OpKind::HRot, 5, 0.5);
        unopt.record(OpKind::Rescale, 3, 0.3);
        unopt.record_encodes(4);
        let mut opt = OpCounter::new();
        opt.record(OpKind::HRot, 2, 0.2);
        opt.record(OpKind::Rescale, 3, 0.3);
        // a kind present only in the optimized run must not underflow
        opt.record(OpKind::Hoist, 1, 0.1);
        let d = unopt.diff(&opt);
        assert_eq!(d.count(OpKind::HRot), 3);
        assert_eq!(d.count(OpKind::Rescale), 0);
        assert_eq!(d.count(OpKind::Hoist), 0);
        assert_eq!(d.encodes, 4);
        assert!((d.seconds - 0.2).abs() < 1e-12);
    }
}
