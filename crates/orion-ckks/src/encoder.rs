//! Cleartext ↔ plaintext conversion (paper §2.2).
//!
//! Encoding runs the special inverse FFT on the slot vector, scales by Δ
//! (or, for the errorless weight path, by an arbitrary chosen scale such as
//! `q_j` — paper §6/Figure 7), and rounds to integer polynomial
//! coefficients. Decoding inverts the process.

use crate::encrypt::Plaintext;
use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use orion_math::fft::Complex;

/// Encoder/decoder bound to a context.
pub struct Encoder {
    ctx: std::sync::Arc<Context>,
}

impl Encoder {
    /// Creates an encoder for `ctx`.
    pub fn new(ctx: std::sync::Arc<Context>) -> Self {
        Self { ctx }
    }

    /// Encodes a real vector (length ≤ slots; zero-padded) into a plaintext
    /// at `level` with the given `scale`. `with_special` additionally
    /// carries the level's `α(level)` special-prime limbs so the plaintext
    /// can multiply extended-basis accumulators (double-hoisting).
    pub fn encode(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
        with_special: bool,
    ) -> Plaintext {
        let slots = self.ctx.slots();
        assert!(values.len() <= slots, "too many values for slot count");
        let mut vals = vec![Complex::default(); slots];
        for (v, &x) in vals.iter_mut().zip(values) {
            *v = Complex::new(x, 0.0);
        }
        self.encode_complex(&vals, scale, level, with_special)
    }

    /// Encodes a complex slot vector (must be exactly `slots` long).
    pub fn encode_complex(
        &self,
        slot_vals: &[Complex],
        scale: f64,
        level: usize,
        with_special: bool,
    ) -> Plaintext {
        let slots = self.ctx.slots();
        assert_eq!(slot_vals.len(), slots);
        let mut vals = slot_vals.to_vec();
        self.ctx.fft.inverse(&mut vals);
        let n = self.ctx.degree();
        // The lift temporary comes from the arena: encode-heavy paths
        // (batch weight encoding, per-request input encoding) stop paying
        // an i128 allocation per call.
        let mut coeffs = orion_math::arena::scratch_i128_raw(n);
        for (j, v) in vals.iter().enumerate() {
            coeffs[j] = (v.re * scale).round() as i128;
            coeffs[j + slots] = (v.im * scale).round() as i128;
        }
        let specials = if with_special {
            self.ctx.alpha(level)
        } else {
            0
        };
        let mut poly = RnsPoly::from_signed(&self.ctx, &coeffs, level, specials);
        poly.to_eval(&self.ctx);
        Plaintext { poly, scale }
    }

    /// Decodes a plaintext back to its real slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        self.decode_complex(pt).into_iter().map(|c| c.re).collect()
    }

    /// Decodes a plaintext to complex slot values.
    pub fn decode_complex(&self, pt: &Plaintext) -> Vec<Complex> {
        // The lift reads the lowest two limbs only: a coefficient-form
        // plaintext (what decryption returns) is read in place, an
        // evaluation-form one has just those limbs copied and transformed.
        let coeffs = if pt.poly.form == Form::Coeff {
            pt.poly.lift_centered(&self.ctx)
        } else {
            let mut low = pt.poly.chain_to_level(pt.level().min(1));
            low.to_coeff(&self.ctx);
            low.lift_centered(&self.ctx)
        };
        let slots = self.ctx.slots();
        let inv = 1.0 / pt.scale;
        let mut vals: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(coeffs[j] as f64 * inv, coeffs[j + slots] as f64 * inv))
            .collect();
        self.ctx.fft.forward(&mut vals);
        vals
    }

    /// The context this encoder is bound to.
    pub fn context(&self) -> &std::sync::Arc<Context> {
        &self.ctx
    }

    /// Encodes a scalar constant replicated across all slots.
    ///
    /// Constants are encoded without the FFT (a constant slot vector embeds
    /// as a constant polynomial), which keeps them exact. The engine never
    /// builds one — `Evaluator::{mul_scalar, add_scalar}` apply the same
    /// integer per limb — this is the reference their tests compare against.
    pub fn encode_constant(
        &self,
        value: f64,
        scale: f64,
        level: usize,
        with_special: bool,
    ) -> Plaintext {
        let n = self.ctx.degree();
        let mut coeffs = orion_math::arena::scratch_i128(n);
        coeffs[0] = (value * scale).round() as i128;
        let specials = if with_special {
            self.ctx.alpha(level)
        } else {
            0
        };
        let mut poly = RnsPoly::from_signed(&self.ctx, &coeffs, level, specials);
        poly.to_eval(&self.ctx);
        Plaintext { poly, scale }
    }

    /// Encodes weights "errorlessly" for consumption at chain index `level`
    /// (paper §6): the plaintext scale is exactly `q_level`, so after
    /// `PMult` + rescale the ciphertext scale returns to precisely its
    /// input scale.
    pub fn encode_at_prime_scale(
        &self,
        values: &[f64],
        level: usize,
        with_special: bool,
    ) -> Plaintext {
        let scale = self.ctx.moduli[level] as f64;
        self.encode(values, scale, level, with_special)
    }

    /// Errorless weight encoding *with* the special limbs, for double-hoisted
    /// accumulation (the plaintext can then multiply extended-basis
    /// key-switch accumulators).
    pub fn encode_at_prime_scale_ws(&self, values: &[f64], level: usize) -> Plaintext {
        let scale = self.ctx.moduli[level] as f64;
        self.encode(values, scale, level, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn setup() -> Encoder {
        Encoder::new(Context::new(CkksParams::tiny()))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = setup();
        let slots = enc.context().slots();
        let vals: Vec<f64> = (0..slots)
            .map(|i| ((i as f64) * 0.01).sin() * 3.0)
            .collect();
        let pt = enc.encode(&vals, enc.context().scale(), 2, false);
        let out = enc.decode(&pt);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn short_vectors_are_zero_padded() {
        let enc = setup();
        let pt = enc.encode(&[1.0, 2.0, 3.0], enc.context().scale(), 1, false);
        let out = enc.decode(&pt);
        assert!((out[0] - 1.0).abs() < 1e-6);
        assert!((out[2] - 3.0).abs() < 1e-6);
        assert!(out[5].abs() < 1e-6);
    }

    #[test]
    fn constant_encoding_is_exact_in_every_slot() {
        let enc = setup();
        let pt = enc.encode_constant(0.5, enc.context().scale(), 0, false);
        let out = enc.decode(&pt);
        for &x in &out {
            assert!((x - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn plaintext_addition_homomorphism() {
        let enc = setup();
        let ctx = enc.context().clone();
        let slots = ctx.slots();
        let a: Vec<f64> = (0..slots).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..slots).map(|i| (i % 5) as f64 * 0.25).collect();
        let mut pa = enc.encode(&a, ctx.scale(), 1, false);
        let pb = enc.encode(&b, ctx.scale(), 1, false);
        pa.poly.add_assign(&pb.poly, &ctx);
        let out = enc.decode(&pa);
        for i in 0..slots {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn prime_scale_encoding_uses_chain_prime() {
        let enc = setup();
        let pt = enc.encode_at_prime_scale(&[1.0], 2, false);
        assert_eq!(pt.scale, enc.context().moduli[2] as f64);
    }
}
