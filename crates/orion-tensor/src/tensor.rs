//! The dense `f64` tensor type.

use rand::Rng;

/// A dense row-major tensor of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor from existing data (length must match the shape product).
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Kaiming-uniform initialization (fan-in based), the PyTorch default
    /// for conv/linear weights.
    pub fn kaiming<R: Rng>(shape: &[usize], fan_in: usize, rng: &mut R) -> Self {
        let bound = (1.0 / fan_in as f64).sqrt();
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-bound..bound)).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes (element count must be preserved).
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(shape.iter().product::<usize>(), self.data.len());
        self.shape = shape.to_vec();
        self
    }

    /// Flat index for a 3-D `(c, y, x)` coordinate.
    #[inline]
    pub fn idx3(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 3);
        (c * self.shape[1] + y) * self.shape[2] + x
    }

    /// Element access for 3-D tensors.
    #[inline]
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f64 {
        self.data[self.idx3(c, y, x)]
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.shape, other.shape);
        Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Largest absolute value. NaN elements are skipped (`f64::max` drops
    /// them), so an all-NaN tensor reads 0; check finiteness first where a
    /// NaN must not pass unseen.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Index of the largest element (argmax over the flattened data).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|x| x as f64).collect());
        assert_eq!(t.at3(1, 0, 1), 5.0);
        assert_eq!(t.shape(), &[2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_shape_rejected() {
        Tensor::from_vec(&[2, 3], vec![0.0; 5]);
    }

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::kaiming(&[16, 9], 9, &mut rng);
        let bound = (1.0f64 / 9.0).sqrt();
        assert!(t.max_abs() <= bound);
        assert!(t.max_abs() > bound * 0.5);
    }

    #[test]
    fn map_add_argmax() {
        let a = Tensor::from_vec(&[3], vec![1.0, -2.0, 0.5]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2.0, -4.0, 1.0]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[3.0, -6.0, 1.5]);
        assert_eq!(c.argmax(), 0);
    }
}
