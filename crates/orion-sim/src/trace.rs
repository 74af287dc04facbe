//! The cleartext trace engine.
//!
//! [`TraceEngine`] mirrors the real evaluator's instruction set on plain
//! `f64` slot vectors while enforcing FHE legality: multiplications must be
//! rescaled, rescales consume levels, level-0 ciphertexts must be
//! bootstrapped before further depth, and bootstraps return to `L_eff`.
//!
//! The engine models *semantics and legality only* — operation counting
//! and modeled latency live in one place, the fold over the execution plan
//! in `orion-nn` (`orion_nn::sched::count_plan`), so the paper's reporting
//! columns are produced identically for every execution engine rather
//! than re-tallied per engine.

/// A "ciphertext" in the trace backend: cleartext slots plus the FHE
/// bookkeeping (level, pending rescales).
#[derive(Clone, Debug)]
pub struct TraceCiphertext {
    /// Slot values.
    pub slots: Vec<f64>,
    /// Current multiplicative level ℓ.
    pub level: usize,
    /// Multiplications applied since the last rescale (must be settled
    /// before the next multiplication, as in real CKKS scale management).
    pub pending: u32,
}

impl TraceCiphertext {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the ciphertext has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A hoisted trace ciphertext (digit decomposition already "paid").
pub struct HoistedTrace {
    inner: TraceCiphertext,
}

impl HoistedTrace {
    /// The underlying ciphertext.
    pub fn ciphertext(&self) -> &TraceCiphertext {
        &self.inner
    }
}

/// Cleartext executor with FHE-legality enforcement. The engine itself is
/// stateless (geometry only) and every operation takes `&self`, so one
/// engine can serve concurrent wire-level units of the dataflow scheduler.
pub struct TraceEngine {
    /// Slot count per ciphertext.
    pub slots: usize,
    /// Maximum level `L`.
    pub max_level: usize,
    /// Post-bootstrap level `L_eff`.
    pub effective_level: usize,
}

impl TraceEngine {
    /// Creates an engine for `slots` slots and the given level budget.
    pub fn new(slots: usize, max_level: usize, effective_level: usize) -> Self {
        assert!(effective_level <= max_level);
        Self {
            slots,
            max_level,
            effective_level,
        }
    }

    /// "Encrypts" a slot vector at `level` (zero-padded/truncated to the
    /// slot count).
    pub fn encrypt(&self, vals: &[f64], level: usize) -> TraceCiphertext {
        assert!(level <= self.max_level);
        let mut slots = vals.to_vec();
        slots.resize(self.slots, 0.0);
        TraceCiphertext {
            slots,
            level,
            pending: 0,
        }
    }

    /// Reads the slot values back ("decrypt + decode").
    pub fn decrypt(&self, ct: &TraceCiphertext) -> Vec<f64> {
        ct.slots.clone()
    }

    fn check_mul_ready(ct: &TraceCiphertext) {
        assert!(
            ct.pending == 0,
            "multiplying an unrescaled ciphertext (scale would drift)"
        );
    }

    /// `HAdd` (levels must match, as in CKKS).
    pub fn hadd(&self, a: &TraceCiphertext, b: &TraceCiphertext) -> TraceCiphertext {
        assert_eq!(
            a.level, b.level,
            "HAdd level mismatch — the compiler must align levels"
        );
        assert_eq!(a.pending, b.pending, "HAdd scale mismatch");
        let slots = a.slots.iter().zip(&b.slots).map(|(x, y)| x + y).collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: a.pending,
        }
    }

    /// `PAdd` with a plaintext vector.
    pub fn padd(&self, a: &TraceCiphertext, v: &[f64]) -> TraceCiphertext {
        let slots = a
            .slots
            .iter()
            .enumerate()
            .map(|(i, x)| x + v.get(i).copied().unwrap_or(0.0))
            .collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: a.pending,
        }
    }

    /// `PMult` with a plaintext vector; the result carries a pending
    /// rescale.
    pub fn pmult(&self, a: &TraceCiphertext, v: &[f64]) -> TraceCiphertext {
        Self::check_mul_ready(a);
        let slots = a
            .slots
            .iter()
            .enumerate()
            .map(|(i, x)| x * v.get(i).copied().unwrap_or(0.0))
            .collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: 1,
        }
    }

    /// `PMult` by a replicated scalar.
    pub fn pmult_scalar(&self, a: &TraceCiphertext, s: f64) -> TraceCiphertext {
        Self::check_mul_ready(a);
        let slots = a.slots.iter().map(|x| x * s).collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: 1,
        }
    }

    /// `HMult` with relinearization.
    pub fn hmult(&self, a: &TraceCiphertext, b: &TraceCiphertext) -> TraceCiphertext {
        assert_eq!(a.level, b.level, "HMult level mismatch");
        Self::check_mul_ready(a);
        Self::check_mul_ready(b);
        assert!(a.level >= 1, "HMult at level 0 — bootstrap required first");
        let slots = a.slots.iter().zip(&b.slots).map(|(x, y)| x * y).collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: 1,
        }
    }

    /// Rescale: settles one pending multiplication, consuming a level.
    pub fn rescale(&self, a: &TraceCiphertext) -> TraceCiphertext {
        assert!(a.pending > 0, "nothing to rescale");
        assert!(a.level >= 1, "rescale at level 0 — bootstrap required");
        TraceCiphertext {
            slots: a.slots.clone(),
            level: a.level - 1,
            pending: a.pending - 1,
        }
    }

    /// Free level drop.
    pub fn drop_to_level(&self, a: &TraceCiphertext, level: usize) -> TraceCiphertext {
        assert!(level <= a.level, "cannot drop upward");
        TraceCiphertext {
            slots: a.slots.clone(),
            level,
            pending: a.pending,
        }
    }

    /// Full `HRot` by `k` (`out[i] = in[(i+k) mod slots]`).
    pub fn rotate(&self, a: &TraceCiphertext, k: isize) -> TraceCiphertext {
        if k == 0 {
            return a.clone();
        }
        let n = self.slots as isize;
        let slots = (0..self.slots)
            .map(|i| a.slots[((i as isize + k).rem_euclid(n)) as usize])
            .collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: a.pending,
        }
    }

    /// Marks a ciphertext hoisted; subsequent [`Self::rotate_hoisted`]
    /// calls model the shared digit decomposition.
    pub fn hoist(&self, a: &TraceCiphertext) -> HoistedTrace {
        HoistedTrace { inner: a.clone() }
    }

    /// A hoisted rotation.
    pub fn rotate_hoisted(&self, h: &HoistedTrace, k: isize) -> TraceCiphertext {
        if k == 0 {
            return h.inner.clone();
        }
        let n = self.slots as isize;
        let a = &h.inner;
        let slots = (0..self.slots)
            .map(|i| a.slots[((i as isize + k).rem_euclid(n)) as usize])
            .collect();
        TraceCiphertext {
            slots,
            level: a.level,
            pending: a.pending,
        }
    }

    /// Bootstrap: resets to `L_eff` (paper §2.5.4).
    pub fn bootstrap(&self, a: &TraceCiphertext) -> TraceCiphertext {
        assert_eq!(a.pending, 0, "rescale before bootstrapping");
        TraceCiphertext {
            slots: a.slots.clone(),
            level: self.effective_level,
            pending: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TraceEngine {
        TraceEngine::new(8, 6, 4)
    }

    #[test]
    fn rotation_semantics_match_ckks() {
        let e = engine();
        let ct = e.encrypt(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 3);
        let r = e.rotate(&ct, 3);
        assert_eq!(r.slots, vec![3.0, 4.0, 5.0, 6.0, 7.0, 0.0, 1.0, 2.0]);
        let r = e.rotate(&ct, -1);
        assert_eq!(r.slots[0], 7.0);
    }

    #[test]
    fn mult_then_rescale_consumes_level() {
        let e = engine();
        let ct = e.encrypt(&[2.0; 8], 3);
        let p = e.pmult(&ct, &[0.5; 8]);
        assert_eq!(p.pending, 1);
        let r = e.rescale(&p);
        assert_eq!(r.level, 2);
        assert_eq!(r.pending, 0);
        assert_eq!(r.slots[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "unrescaled")]
    fn double_mult_without_rescale_is_illegal() {
        let e = engine();
        let ct = e.encrypt(&[1.0; 8], 3);
        let p = e.pmult(&ct, &[1.0; 8]);
        let _ = e.pmult(&p, &[1.0; 8]);
    }

    #[test]
    #[should_panic(expected = "bootstrap required")]
    fn rescale_at_level_zero_is_illegal() {
        let e = engine();
        let ct = e.encrypt(&[1.0; 8], 0);
        let p = e.pmult(&ct, &[1.0; 8]);
        let _ = e.rescale(&p);
    }

    #[test]
    fn bootstrap_restores_effective_level() {
        let e = engine();
        let ct = e.encrypt(&[0.5; 8], 0);
        let b = e.bootstrap(&ct);
        assert_eq!(b.level, 4);
        assert_eq!(b.slots[0], 0.5);
    }

    #[test]
    fn hoisted_rotation_matches_full_rotation() {
        let e = engine();
        let ct = e.encrypt(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 3);
        let h = e.hoist(&ct);
        let r1 = e.rotate_hoisted(&h, 1);
        let r2 = e.rotate(&ct, 1);
        assert_eq!(r1.slots, r2.slots);
        assert_eq!(r1.slots[0], 2.0);
    }

    #[test]
    fn hmult_multiplies_values() {
        let e = engine();
        let a = e.encrypt(&[3.0; 8], 2);
        let b = e.encrypt(&[-0.5; 8], 2);
        let m = e.hmult(&a, &b);
        let m = e.rescale(&m);
        assert_eq!(m.slots[0], -1.5);
        assert_eq!(m.level, 1);
    }
}
