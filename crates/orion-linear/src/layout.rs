//! The multiplexed tensor layout (paper §4.3, Figure 5b).
//!
//! A `(C, H, W)` tensor with multiplex factor `t` occupies a spatial base
//! grid of `H·t × W·t` positions: channel `c` contributes its pixel
//! `(y, x)` at grid position `(y·t + δy, x·t + δx)` where
//! `(δy, δx) = (⌊(c mod t²)/t⌋, (c mod t²) mod t)`; channel groups beyond
//! `t²` stack along the slot dimension. A stride-`s` convolution maps a
//! layout with factor `t` to one with factor `s·t` *densely* — no holes,
//! no mask-and-collect, which is what makes strided convolutions depth-1.

/// Describes how a `(C, H, W)` tensor is packed into ciphertext slots.
///
/// A layout *names* the slots that hold tensor elements ([`Self::slot_of`]);
/// what the other slots hold is unspecified — zero after a convolution,
/// `R`-periodic copies of the outputs after a row-folded dense layer
/// (`plan::dense_plan`). Consumers read named slots only: a linear layer's
/// diagonals are zero at every column its input layout does not name, and
/// `unpack` gathers named slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorLayout {
    /// Logical channels.
    pub c: usize,
    /// Logical height.
    pub h: usize,
    /// Logical width.
    pub w: usize,
    /// Multiplex factor (gap). `t = 1` is plain raster order.
    pub t: usize,
}

impl TensorLayout {
    /// Plain raster layout (`t = 1`).
    pub fn raster(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w, t: 1 }
    }

    /// The base-grid height `H·t`.
    pub fn h_full(&self) -> usize {
        self.h * self.t
    }

    /// The base-grid width `W·t`.
    pub fn w_full(&self) -> usize {
        self.w * self.t
    }

    /// Channels multiplexed per base-grid cell.
    pub fn channels_per_group(&self) -> usize {
        self.t * self.t
    }

    /// Number of channel groups (slot-dimension repeats of the base grid).
    pub fn channel_groups(&self) -> usize {
        self.c.div_ceil(self.channels_per_group())
    }

    /// Total slot span of the layout (including multiplex holes when `c` is
    /// not a multiple of `t²`).
    pub fn total_slots(&self) -> usize {
        self.channel_groups() * self.h_full() * self.w_full()
    }

    /// Slot index of element `(c, y, x)`.
    #[inline]
    pub fn slot_of(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        let t = self.t;
        let cb = c % (t * t);
        let cg = c / (t * t);
        let dy = cb / t;
        let dx = cb % t;
        cg * (self.h_full() * self.w_full()) + (y * t + dy) * self.w_full() + (x * t + dx)
    }

    /// Scatters a raster-order tensor (`data[(c·h + y)·w + x]`) into a slot
    /// vector of length ≥ `total_slots`.
    pub fn pack(&self, data: &[f64]) -> Vec<f64> {
        assert_eq!(data.len(), self.c * self.h * self.w);
        let mut out = vec![0.0; self.total_slots()];
        for c in 0..self.c {
            for y in 0..self.h {
                for x in 0..self.w {
                    out[self.slot_of(c, y, x)] = data[(c * self.h + y) * self.w + x];
                }
            }
        }
        out
    }

    /// Gathers a slot vector back into raster order.
    pub fn unpack(&self, slots: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.c * self.h * self.w];
        for c in 0..self.c {
            for y in 0..self.h {
                for x in 0..self.w {
                    out[(c * self.h + y) * self.w + x] = slots[self.slot_of(c, y, x)];
                }
            }
        }
        out
    }

    /// The layout after a convolution producing `(c_out, h_out, w_out)` with
    /// stride `s`: the multiplex factor grows by `s` (paper: "subsequent
    /// non-strided convolutions maintain this gap, while strided
    /// convolutions increase it by a factor of s").
    pub fn after_conv(&self, c_out: usize, h_out: usize, w_out: usize, stride: usize) -> Self {
        Self {
            c: c_out,
            h: h_out,
            w: w_out,
            t: self.t * stride,
        }
    }

    /// Number of ciphertexts needed for this layout at `slots` slots each.
    pub fn num_ciphertexts(&self, slots: usize) -> usize {
        self.total_slots().div_ceil(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raster_layout_is_identity() {
        let l = TensorLayout::raster(2, 3, 4);
        assert_eq!(l.slot_of(0, 0, 0), 0);
        assert_eq!(l.slot_of(0, 1, 2), 6);
        assert_eq!(l.slot_of(1, 0, 0), 12);
        assert_eq!(l.total_slots(), 24);
    }

    #[test]
    fn multiplexed_layout_interleaves_channels() {
        // 4 channels of a 2×2 image with t = 2: all in one 4×4 base grid.
        let l = TensorLayout {
            c: 4,
            h: 2,
            w: 2,
            t: 2,
        };
        assert_eq!(l.total_slots(), 16);
        assert_eq!(l.channel_groups(), 1);
        // channel 0 at (0,0) → grid (0,0); channel 1 → grid (0,1);
        // channel 2 → grid (1,0); channel 3 → grid (1,1).
        assert_eq!(l.slot_of(0, 0, 0), 0);
        assert_eq!(l.slot_of(1, 0, 0), 1);
        assert_eq!(l.slot_of(2, 0, 0), 4);
        assert_eq!(l.slot_of(3, 0, 0), 5);
        // channel 0 at (0,1) → grid (0, 2).
        assert_eq!(l.slot_of(0, 0, 1), 2);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (c, h, w, t) in [(3, 4, 4, 1), (8, 4, 4, 2), (5, 2, 2, 2), (16, 2, 2, 4)] {
            let l = TensorLayout { c, h, w, t };
            let data: Vec<f64> = (0..c * h * w).map(|i| i as f64 + 1.0).collect();
            let packed = l.pack(&data);
            assert_eq!(l.unpack(&packed), data);
            // All data slots distinct: the packed vector holds each value once.
            let nonzero = packed.iter().filter(|&&x| x != 0.0).count();
            assert_eq!(nonzero, data.len());
        }
    }

    #[test]
    fn strided_conv_grows_gap() {
        let input = TensorLayout::raster(16, 32, 32);
        let out = input.after_conv(32, 16, 16, 2);
        assert_eq!(out.t, 2);
        assert_eq!(
            out.h_full(),
            32,
            "base grid is preserved by same-style stride-2"
        );
        // 32 channels, t²=4 per cell → 8 groups.
        assert_eq!(out.channel_groups(), 8);
    }

    #[test]
    fn ciphertext_count() {
        let l = TensorLayout::raster(16, 32, 32); // 16384 slots
        assert_eq!(l.num_ciphertexts(16384), 1);
        assert_eq!(l.num_ciphertexts(8192), 2);
        assert_eq!(l.num_ciphertexts(32768), 1);
    }
}
