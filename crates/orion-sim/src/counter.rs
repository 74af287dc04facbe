//! Operation counters: the statistics behind the paper's "# Rots" and
//! "# Boots" columns (Tables 2–4).

use crate::cost::CostModel;
use serde::{Deserialize, Serialize, Value};
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

    /// Stable serialization name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::HAdd => "HAdd",
            OpKind::PAdd => "PAdd",
            OpKind::PMult => "PMult",
            OpKind::HMult => "HMult",
            OpKind::HRot => "HRot",
            OpKind::HRotHoisted => "HRotHoisted",
            OpKind::Hoist => "Hoist",
            OpKind::ModDown => "ModDown",
            OpKind::Rescale => "Rescale",
            OpKind::Bootstrap => "Bootstrap",
        }
    }

    /// Inverse of [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        OpKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl Serialize for OpKind {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for OpKind {
    fn from_value(v: &Value) -> Result<Self, String> {
        let s = v
            .as_str()
            .ok_or_else(|| format!("expected op-kind string, got {v:?}"))?;
        Self::from_name(s).ok_or_else(|| format!("unknown op kind {s:?}"))
    }
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
    /// counter — e.g. `unoptimized.diff(&optimized)` yields the operations
    /// a rewrite eliminated — so assertions and reports read as deltas
    /// instead of hand-rolled per-kind subtraction.
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

impl Serialize for OpCounter {
    fn to_value(&self) -> Value {
        let counts = self
            .counts
            .iter()
            .map(|(k, &n)| (k.name().to_string(), Value::Num(n as f64)))
            .collect();
        Value::Obj(vec![
            ("counts".to_string(), Value::Obj(counts)),
            ("seconds".to_string(), Value::Num(self.seconds)),
            (
                "linear_seconds".to_string(),
                Value::Num(self.linear_seconds),
            ),
            (
                "bootstrap_seconds".to_string(),
                Value::Num(self.bootstrap_seconds),
            ),
            ("encodes".to_string(), Value::Num(self.encodes as f64)),
        ])
    }
}

impl Deserialize for OpCounter {
    fn from_value(v: &Value) -> Result<Self, String> {
        let counts_obj = match v.get("counts") {
            Some(Value::Obj(fields)) => fields,
            other => return Err(format!("expected counts object, got {other:?}")),
        };
        let mut counts = BTreeMap::new();
        for (name, n) in counts_obj {
            let kind =
                OpKind::from_name(name).ok_or_else(|| format!("unknown op kind {name:?}"))?;
            let n = n
                .as_f64()
                .ok_or_else(|| format!("count {name:?} is not a number"))?;
            counts.insert(kind, n as u64);
        }
        let field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        Ok(Self {
            counts,
            seconds: field("seconds")?,
            linear_seconds: field("linear_seconds")?,
            bootstrap_seconds: field("bootstrap_seconds")?,
            // absent in pre-prepared-path logs
            encodes: v.get("encodes").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        })
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

/// Serializes a counter to pretty JSON (for experiment logs; the struct
/// also implements `serde::Serialize` for custom sinks).
pub fn to_json(counter: &OpCounter) -> String {
    serde_json::to_string_pretty(counter).expect("counter is always serializable")
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut c = OpCounter::new();
        c.record(OpKind::HRot, 7, 1.5);
        c.record(OpKind::Bootstrap, 2, 20.0);
        c.record_encodes(9);
        let json = to_json(&c);
        assert!(json.contains("HRot"));
        let back: OpCounter = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rotations(), 7);
        assert_eq!(back.bootstraps(), 2);
        assert_eq!(back.encodes, 9);
        assert!((back.seconds - c.seconds).abs() < 1e-12);
    }

    #[test]
    fn json_without_encodes_field_still_parses() {
        // pre-prepared-path logs lack the field; it defaults to zero
        let json = r#"{"counts": {"HRot": 1}, "seconds": 0.1,
                       "linear_seconds": 0.0, "bootstrap_seconds": 0.0}"#;
        let back: OpCounter = serde_json::from_str(json).unwrap();
        assert_eq!(back.encodes, 0);
        assert_eq!(back.rotations(), 1);
    }
}
