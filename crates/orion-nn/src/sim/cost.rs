//! The analytical latency model (paper Figure 1 and §5.2).
//!
//! All latencies are single-threaded seconds for ring degree `n`. The
//! constants were calibrated so that deployment-scale parameters
//! (N = 2¹⁶, L_eff = 10, L_boot = 14) land in the regime the paper
//! reports for its C4/Xeon testbed: bootstraps of ~10 s, hoisted rotations
//! of a few ms, and a ResNet-20 inference in the several-hundred-second
//! range. The *shapes* — what grows with level and how fast — follow the
//! paper's Figure 1 exactly:
//!
//! * `HAdd`/`PMult`: linear in `ℓ+1` (one pass over each limb),
//! * `HRot`/`HMult` key-switching: quadratic-ish in `ℓ` (per-limb digit
//!   decomposition does `(ℓ+1)(ℓ+2)` NTTs),
//! * bootstrap: super-linear in `L_eff` (dnum growth; Figure 1c).

use super::counter::OpKind;

/// Analytical cost model for one CKKS parameter set.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Ring degree `N`.
    pub n: usize,
    /// Levels consumed by bootstrapping (`L_boot`).
    pub boot_levels: usize,
    /// Seconds per butterfly-sized unit of NTT work (calibration constant).
    pub ntt_unit: f64,
    /// Seconds per slot-limb of pointwise work (calibration constant).
    pub mul_unit: f64,
    /// Bootstrap scale constant (calibration constant).
    pub boot_unit: f64,
}

impl CostModel {
    /// Model for a given ring degree with paper-calibrated constants.
    pub fn for_degree(n: usize, boot_levels: usize) -> Self {
        Self {
            n,
            boot_levels,
            ntt_unit: 2.5e-9,
            mul_unit: 4.0e-10,
            boot_unit: 1.9e-2,
        }
    }

    /// Model matching the paper's evaluation parameters (N = 2¹⁶,
    /// L_boot = 14, L_eff = 10).
    pub fn paper() -> Self {
        Self::for_degree(1 << 16, 14)
    }

    /// One NTT (or inverse NTT) over one limb.
    pub fn ntt(&self) -> f64 {
        self.ntt_unit * self.n as f64 * (self.n as f64).log2()
    }

    /// `HAdd`/`PAdd` at level ℓ (Figure 1a's cheap sibling).
    pub fn hadd(&self, level: usize) -> f64 {
        0.25 * self.mul_unit * self.n as f64 * (level + 1) as f64
    }

    /// `PMult` at level ℓ (Figure 1a: linear in ℓ).
    pub fn pmult(&self, level: usize) -> f64 {
        self.mul_unit * self.n as f64 * (level + 1) as f64
    }

    /// Rescale at level ℓ: one INTT + ℓ NTTs + pointwise fixups, ×2
    /// components.
    pub fn rescale(&self, level: usize) -> f64 {
        2.0 * (level as f64 + 1.0) * self.ntt() + self.pmult(level)
    }

    /// The hoisted part of a key-switch: digit decomposition + basis
    /// extension of one ciphertext, `(ℓ+1)` INTTs + `(ℓ+1)(ℓ+2)` NTTs.
    /// This prices the paper's placement model (one digit per limb), not
    /// the engine's transform count: hybrid key switching runs `ℓ+1`
    /// INTTs and `dnum(ℓ)·(ℓ+1+α(ℓ)) − (ℓ+1)` NTTs (11 at L4 on `small`).
    /// The prices stay so that Table 5's bootstrap counts and the plan
    /// digests do not move; a model fitted to the engine is ROADMAP
    /// item 23.
    pub fn ks_decompose(&self, level: usize) -> f64 {
        let l1 = (level + 1) as f64;
        (l1 + l1 * (l1 + 1.0)) * self.ntt()
    }

    /// The per-rotation inner product against a key-switch key
    /// (`2(ℓ+1)(ℓ+2)` limb products) plus the automorphism permutation.
    pub fn ks_inner(&self, level: usize) -> f64 {
        let l1 = (level + 1) as f64;
        2.0 * l1 * (l1 + 1.0) * self.mul_unit * self.n as f64 + self.hadd(level)
    }

    /// The final ModDown of a key-switch (two components).
    pub fn ks_moddown(&self, level: usize) -> f64 {
        2.0 * ((level + 2) as f64) * self.ntt()
    }

    /// A full (non-hoisted) `HRot` at level ℓ (Figure 1b: super-linear).
    pub fn hrot(&self, level: usize) -> f64 {
        self.ks_decompose(level) + self.ks_inner(level) + self.ks_moddown(level)
    }

    /// A hoisted rotation, given the decomposition is already paid for:
    /// the inner product alone — the deferred ModDown is its own
    /// `OpKind::ModDown`, priced by [`CostModel::ks_moddown`].
    pub fn hrot_hoisted(&self, level: usize) -> f64 {
        self.ks_inner(level)
    }

    /// `HMult` with relinearization at level ℓ.
    pub fn hmult(&self, level: usize) -> f64 {
        self.hrot(level) + 3.0 * self.pmult(level)
    }

    /// Bootstrap latency as a function of the post-bootstrap level `L_eff`
    /// (Figure 1c: super-linear growth through dnum).
    pub fn bootstrap(&self, l_eff: usize) -> f64 {
        let depth = (l_eff + self.boot_levels) as f64;
        let scale = self.n as f64 / (1u64 << 16) as f64;
        self.boot_unit * depth * depth * scale
    }

    /// THE price of one operation: modeled seconds of one `kind` on a
    /// ciphertext at `level` (a `Bootstrap`'s level is the `L_eff` it
    /// refreshes to). Placement's objective, the op counter and every
    /// report are `Σ count × op(kind, level)` over a plan unit's op list
    /// ([`super::OpCounter::priced`]); the per-op methods above are the
    /// curves it reads (Figure 1).
    pub fn op(&self, kind: OpKind, level: usize) -> f64 {
        match kind {
            OpKind::HAdd | OpKind::PAdd => self.hadd(level),
            OpKind::PMult => self.pmult(level),
            OpKind::HMult => self.hmult(level),
            OpKind::HRot => self.hrot(level),
            OpKind::HRotHoisted => self.hrot_hoisted(level),
            OpKind::Hoist => self.ks_decompose(level),
            OpKind::ModDown => self.ks_moddown(level),
            OpKind::Rescale => self.rescale(level),
            OpKind::Bootstrap => self.bootstrap(level),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmult_is_linear_in_level() {
        let m = CostModel::paper();
        let a = m.pmult(2);
        let b = m.pmult(5);
        let c = m.pmult(11);
        assert!((b / a - 2.0).abs() < 1e-9); // (5+1)/(2+1)
        assert!((c / a - 4.0).abs() < 1e-9);
    }

    #[test]
    fn hrot_grows_superlinearly() {
        let m = CostModel::paper();
        // Doubling the level should more than double the rotation cost.
        assert!(m.hrot(10) > 2.0 * m.hrot(5));
    }

    #[test]
    fn bootstrap_matches_paper_regime() {
        let m = CostModel::paper();
        let b = m.bootstrap(10);
        assert!(
            b > 5.0 && b < 20.0,
            "L_eff=10 bootstrap should be ~10s, got {b}"
        );
        // Figure 1c: increasing L_eff increases bootstrap latency
        // super-linearly.
        assert!(m.bootstrap(20) > 1.5 * m.bootstrap(10));
    }

    #[test]
    fn hoisted_rotation_is_much_cheaper() {
        let m = CostModel::paper();
        assert!(m.hrot(8) > 5.0 * m.hrot_hoisted(8));
    }

    #[test]
    fn op_is_total_positive_and_monotone_in_level() {
        let m = CostModel::paper();
        for kind in OpKind::ALL {
            for level in 0..=20 {
                assert!(m.op(kind, level) > 0.0, "{kind:?} at {level}");
                // a bootstrap's level is its target, not its operand's
                if kind != OpKind::Bootstrap && level > 0 {
                    assert!(m.op(kind, level) >= m.op(kind, level - 1), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn smaller_rings_are_cheaper() {
        let a = CostModel::for_degree(1 << 13, 4);
        let b = CostModel::paper();
        assert!(a.hrot(4) < b.hrot(4));
        assert!(a.bootstrap(4) < b.bootstrap(4));
    }
}
