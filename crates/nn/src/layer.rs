//! The paper's layer unit `g_k(x) = act(W_k x + b_k)`.

use crate::activation::Activation;
use crate::error::NnError;
use covern_tensor::kernels::{self, SplitMatrix};
use covern_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Lazily compiled kernel state of a layer: the sign-split matrix the
/// interval transformers run on and the packed transpose the batched
/// forward kernel streams, each built on its own first use — a layer only
/// ever propagated as a box never packs a transpose, and a layer only ever
/// evaluated on points never splits.
///
/// Never serialized (`#[serde(skip)]`), never compared (all caches are
/// equal), and never cloned (a clone starts empty and recompiles on first
/// use) — it is a pure derivative of the weight matrix, invalidated by
/// [`DenseLayer::weights_mut`].
#[derive(Default)]
pub(crate) struct KernelCache {
    split: OnceLock<SplitMatrix>,
    /// `in_dim × out_dim` transpose of the weights.
    wt: OnceLock<Matrix>,
}

impl KernelCache {
    fn is_compiled(&self) -> bool {
        self.split.get().is_some() || self.wt.get().is_some()
    }
}

impl Clone for KernelCache {
    /// Clones start cold: the kernel forms recompile lazily against the
    /// (possibly about-to-be-mutated) cloned weights.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for KernelCache {
    /// Caches never participate in layer equality.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_compiled() { "KernelCache(compiled)" } else { "KernelCache(cold)" })
    }
}

/// One network layer in the paper's decomposition `f = g_n ⊗ … ⊗ g_1`:
/// an affine transform followed by a component-wise activation.
///
/// Weights are stored as an `out_dim × in_dim` matrix so that the forward
/// pass is `act(W x + b)`.
///
/// # Example
///
/// ```
/// use covern_nn::{Activation, DenseLayer};
///
/// let g = DenseLayer::from_rows(&[&[1.0, -1.0]], &[0.5], Activation::Relu);
/// assert_eq!(g.forward(&[2.0, 1.0]), vec![1.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    /// Lazily compiled kernel forms; see [`Self::split_weights`].
    #[serde(skip)]
    kernel: KernelCache,
}

impl Deserialize for DenseLayer {
    /// Decodes through [`DenseLayer::new`], so a bias whose length differs
    /// from the weight rows is an error, never a layer.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Self::new(
            Deserialize::from_value(value.field("weights")?)?,
            Deserialize::from_value(value.field("bias")?)?,
            Deserialize::from_value(value.field("activation")?)?,
        )
        .map_err(|e| serde::DeError::custom(e.to_string()))
    }
}

impl DenseLayer {
    /// Creates a layer from a weight matrix, bias vector and activation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `bias.len()` differs from
    /// the number of weight rows.
    pub fn new(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Result<Self, NnError> {
        if weights.rows() != bias.len() {
            return Err(NnError::DimensionMismatch {
                context: "DenseLayer::new (bias length vs weight rows)",
                expected: weights.rows(),
                actual: bias.len(),
            });
        }
        Ok(Self { weights, bias, activation, kernel: KernelCache::default() })
    }

    /// Convenience constructor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged or `bias` has the wrong length; intended
    /// for tests and examples where shapes are literal.
    pub fn from_rows(rows: &[&[f64]], bias: &[f64], activation: Activation) -> Self {
        Self::new(Matrix::from_rows(rows), bias.to_vec(), activation)
            .expect("literal layer dimensions must agree")
    }

    /// He-style random initialisation: weights `~ N(0, sqrt(2 / in_dim))`,
    /// zero bias.
    pub fn random(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng) -> Self {
        let std_dev = (2.0 / in_dim.max(1) as f64).sqrt();
        let weights = Matrix::from_fn(out_dim, in_dim, |_, _| rng.normal_with(0.0, std_dev));
        Self { weights, bias: vec![0.0; out_dim], activation, kernel: KernelCache::default() }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (number of neurons).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix (`out_dim × in_dim`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable weight matrix (used by the trainer).
    ///
    /// Invalidates the cached split-weight kernel: the next
    /// [`split_weights`](Self::split_weights) call recompiles against the
    /// mutated weights.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        if self.kernel.is_compiled() {
            covern_observe::metrics().kernel_invalidations_total.inc();
        }
        self.kernel = KernelCache::default();
        &mut self.weights
    }

    /// The layer's packed weight transpose, built on first use.
    fn packed_transpose(&self) -> &Matrix {
        self.kernel.wt.get_or_init(|| {
            covern_observe::metrics().kernel_compiles_total.inc();
            kernels::pack_transpose(&self.weights)
        })
    }

    /// The layer's split-weight kernel (`max(W,0)` / `min(W,0)`), compiled
    /// on first use and cached until the weights are mutated.
    ///
    /// This is what the abstract transformers in `covern-absint` run their
    /// fused interval propagation on; caching it here means branch-and-bound
    /// pays the split once per layer instead of once per explored subbox.
    pub fn split_weights(&self) -> &SplitMatrix {
        self.kernel.split.get_or_init(|| {
            covern_observe::metrics().kernel_compiles_total.inc();
            SplitMatrix::compile(&self.weights)
        })
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutable bias vector (used by the trainer).
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Replaces the activation (used when truncating a network for
    /// verification, e.g. dropping a final sigmoid).
    pub fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// The affine part `W x + b` without the activation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn pre_activation(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.weights.matvec(x);
        for (yi, bi) in y.iter_mut().zip(self.bias.iter()) {
            *yi += bi;
        }
        y
    }

    /// The full layer function `act(W x + b)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.activation.apply_vec(&self.pre_activation(x))
    }

    /// The layer function applied to a batch of points (one per row of
    /// `x`): `act(x · Wᵀ + b)` as a single matrix product.
    ///
    /// Under [`kernels::KernelMode::Deterministic`] (the default), row `p`
    /// of the result is bit-identical to `self.forward(x.row(p))` — the
    /// batched kernel keeps each output's reduction order unchanged — so
    /// batching is purely a throughput decision, never a numeric one. Under
    /// [`kernels::KernelMode::Outward`] the reassociated
    /// [`kernels::batch_affine_outward`] runs instead: rows differ from
    /// `forward` by summation-order round-off only, which the probe and
    /// sampling consumers tolerate.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut y = match kernels::kernel_mode() {
            kernels::KernelMode::Deterministic => {
                kernels::batch_affine_packed(x, self.packed_transpose(), &self.bias)
            }
            kernels::KernelMode::Outward => {
                kernels::batch_affine_outward(x, self.packed_transpose(), &self.bias)
            }
        };
        self.activation.apply_in_place(y.as_mut_slice());
        y
    }

    /// Largest absolute difference in weights or bias with `other`.
    ///
    /// Used to quantify how far a fine-tuned layer has drifted.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_param_diff(&self, other: &DenseLayer) -> f64 {
        let w = self.weights.max_abs_diff(&other.weights);
        let b =
            self.bias.iter().zip(other.bias.iter()).fold(0.0f64, |m, (a, c)| m.max((a - c).abs()));
        w.max(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bias_mismatch() {
        let w = Matrix::zeros(2, 3);
        let err = DenseLayer::new(w, vec![0.0; 3], Activation::Relu).unwrap_err();
        assert!(matches!(err, NnError::DimensionMismatch { expected: 2, actual: 3, .. }));
    }

    #[test]
    fn forward_applies_affine_then_activation() {
        let g = DenseLayer::from_rows(&[&[1.0, -2.0], &[-2.0, 1.0]], &[0.0, 0.0], Activation::Relu);
        // x = (1, 1): pre = (-1, -1) -> relu -> (0, 0)
        assert_eq!(g.forward(&[1.0, 1.0]), vec![0.0, 0.0]);
        // x = (1, -1): pre = (3, -3) -> relu -> (3, 0)
        assert_eq!(g.forward(&[1.0, -1.0]), vec![3.0, 0.0]);
    }

    #[test]
    fn pre_activation_adds_bias() {
        let g = DenseLayer::from_rows(&[&[1.0]], &[5.0], Activation::Identity);
        assert_eq!(g.pre_activation(&[2.0]), vec![7.0]);
    }

    #[test]
    fn random_layer_has_requested_shape() {
        let mut rng = Rng::seeded(11);
        let g = DenseLayer::random(4, 3, Activation::Relu, &mut rng);
        assert_eq!(g.in_dim(), 4);
        assert_eq!(g.out_dim(), 3);
        assert!(g.bias().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn max_param_diff_detects_change() {
        let a = DenseLayer::from_rows(&[&[1.0, 2.0]], &[0.0], Activation::Relu);
        let mut b = a.clone();
        assert_eq!(a.max_param_diff(&b), 0.0);
        b.weights_mut().set(0, 1, 2.5);
        assert!((a.max_param_diff(&b) - 0.5).abs() < 1e-12);
        b.bias_mut()[0] = -1.0;
        assert!((a.max_param_diff(&b) - 1.0).abs() < 1e-12);
    }
}
