//! The verified object: a feed-forward stack of dense layers.

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::DenseLayer;
use covern_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A feed-forward network `f = g_n ⊗ … ⊗ g_1` of [`DenseLayer`]s.
///
/// Layer indices follow the paper: layer `1` is the first hidden layer
/// (index `0` in the `layers()` slice). All verification code in
/// `covern-core` operates on this type.
///
/// # Example
///
/// ```
/// use covern_nn::{Activation, Network, DenseLayer};
///
/// # fn main() -> Result<(), covern_nn::NnError> {
/// let net = Network::new(vec![
///     DenseLayer::from_rows(&[&[2.0], &[-1.0]], &[0.0, 0.0], Activation::Relu),
///     DenseLayer::from_rows(&[&[1.0, 1.0]], &[0.0], Activation::Identity),
/// ])?;
/// assert_eq!(net.forward(&[3.0])?, vec![6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Network {
    layers: Vec<DenseLayer>,
}

impl Deserialize for Network {
    /// Decodes through [`Network::new`]: an empty layer stack or layers
    /// that disagree on a shared dimension are errors, never a network.
    /// Every network read from outside the process — protocol frames,
    /// checkpoints, the cluster store, corpus files — passes here.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Self::new(Deserialize::from_value(value.field("layers")?)?)
            .map_err(|e| serde::DeError::custom(e.to_string()))
    }
}

impl Network {
    /// Creates a network from a non-empty, dimensionally consistent layer
    /// stack.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyNetwork`] if `layers` is empty;
    /// * [`NnError::DimensionMismatch`] if consecutive layers disagree on
    ///   their shared dimension.
    pub fn new(layers: Vec<DenseLayer>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        for w in layers.windows(2) {
            if w[0].out_dim() != w[1].in_dim() {
                return Err(NnError::DimensionMismatch {
                    context: "Network::new (consecutive layer dims)",
                    expected: w[0].out_dim(),
                    actual: w[1].in_dim(),
                });
            }
        }
        Ok(Self { layers })
    }

    /// Random He-initialised network with the given layer widths.
    ///
    /// `dims = [in, h1, …, out]` produces `dims.len() - 1` layers; every
    /// hidden layer uses `hidden_act`, the final layer `out_act`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn random(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() { out_act } else { hidden_act };
            layers.push(DenseLayer::random(dims[i], dims[i + 1], act, rng));
        }
        Self { layers }
    }

    /// Input dimension of the network.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension of the network.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers `n` in the paper's sense.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable layer stack (used by the trainer and by fine-tuning).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Layer `k` using the paper's 1-based numbering.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > self.num_layers()`.
    pub fn layer(&self, k: usize) -> &DenseLayer {
        assert!(k >= 1 && k <= self.layers.len(), "layer index {k} out of range");
        &self.layers[k - 1]
    }

    /// Full forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `x.len()` differs from
    /// [`input_dim`](Self::input_dim).
    pub fn forward(&self, x: &[f64]) -> Result<Vec<f64>, NnError> {
        if x.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                context: "Network::forward (input length)",
                expected: self.input_dim(),
                actual: x.len(),
            });
        }
        let mut v = x.to_vec();
        for layer in &self.layers {
            v = layer.forward(&v);
        }
        Ok(v)
    }

    /// Full forward pass over a batch of points, one per row of `x`, as one
    /// matrix product per layer.
    ///
    /// This is the batched evaluation API every replay hot path runs on —
    /// branch-and-bound concrete probes, Lipschitz sampling, campaign
    /// replays. Row `p` of the result is bit-identical to
    /// `self.forward(x.row(p))` (see [`DenseLayer::forward_batch`]), so
    /// callers may batch freely without changing any verdict.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `x.cols()` differs from
    /// [`input_dim`](Self::input_dim).
    ///
    /// # Example
    ///
    /// ```
    /// use covern_nn::{Activation, DenseLayer, Network};
    /// use covern_tensor::Matrix;
    ///
    /// # fn main() -> Result<(), covern_nn::NnError> {
    /// let net = Network::new(vec![
    ///     DenseLayer::from_rows(&[&[2.0], &[-1.0]], &[0.0, 0.0], Activation::Relu),
    ///     DenseLayer::from_rows(&[&[1.0, 1.0]], &[0.0], Activation::Identity),
    /// ])?;
    /// let batch = Matrix::from_rows(&[&[3.0], &[-2.0]]);
    /// let out = net.forward_batch(&batch)?;
    /// assert_eq!(out.row(0), net.forward(&[3.0])?.as_slice());
    /// assert_eq!(out.row(1), net.forward(&[-2.0])?.as_slice());
    /// # Ok(())
    /// # }
    /// ```
    pub fn forward_batch(&self, x: &Matrix) -> Result<Matrix, NnError> {
        if x.cols() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                context: "Network::forward_batch (input columns)",
                expected: self.input_dim(),
                actual: x.cols(),
            });
        }
        // The first layer reads straight off the caller's batch (layers
        // never mutate their input), so no up-front copy of a potentially
        // large point matrix; `new` guarantees at least one layer.
        let mut v = self.layers[0].forward_batch(x);
        for layer in &self.layers[1..] {
            v = layer.forward_batch(&v);
        }
        Ok(v)
    }

    /// Forward pass returning every layer's *post-activation* vector
    /// (`g_1(x)`, `g_2(g_1(x))`, …, `f(x)`).
    ///
    /// This is what the runtime monitor and the state-abstraction recorder
    /// consume.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `x.len()` differs from
    /// [`input_dim`](Self::input_dim).
    pub fn forward_trace(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, NnError> {
        if x.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                context: "Network::forward_trace (input length)",
                expected: self.input_dim(),
                actual: x.len(),
            });
        }
        let mut out = Vec::with_capacity(self.layers.len());
        let mut v = x.to_vec();
        for layer in &self.layers {
            v = layer.forward(&v);
            out.push(v.clone());
        }
        Ok(out)
    }

    /// The sub-network consisting of layers `from..=to` (1-based, inclusive).
    ///
    /// Used by the incremental verifier to build the local subproblems of
    /// Propositions 1, 2, 4 and 5.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice(&self, from: usize, to: usize) -> Network {
        assert!(from >= 1 && to >= from && to <= self.layers.len(), "invalid slice {from}..={to}");
        Network { layers: self.layers[from - 1..to].to_vec() }
    }

    /// Largest absolute parameter difference across all layers with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if the architectures differ.
    pub fn max_param_diff(&self, other: &Network) -> Result<f64, NnError> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::DimensionMismatch {
                context: "Network::max_param_diff (layer count)",
                expected: self.layers.len(),
                actual: other.layers.len(),
            });
        }
        let mut m: f64 = 0.0;
        for (a, b) in self.layers.iter().zip(other.layers.iter()) {
            if a.in_dim() != b.in_dim() || a.out_dim() != b.out_dim() {
                return Err(NnError::DimensionMismatch {
                    context: "Network::max_param_diff (layer shape)",
                    expected: a.out_dim(),
                    actual: b.out_dim(),
                });
            }
            m = m.max(a.max_param_diff(b));
        }
        Ok(m)
    }

    /// Returns a copy with every weight and bias perturbed by independent
    /// uniform noise in `[-eps, eps]`.
    ///
    /// A cheap stand-in for a fine-tuning step when a full training run is
    /// unnecessary (e.g. in property tests).
    pub fn perturbed(&self, eps: f64, rng: &mut Rng) -> Network {
        let mut out = self.clone();
        if eps == 0.0 {
            return out;
        }
        for layer in &mut out.layers {
            let (r, c) = layer.weights().shape();
            for i in 0..r {
                for j in 0..c {
                    let v = layer.weights().get(i, j) + rng.uniform(-eps, eps);
                    layer.weights_mut().set(i, j, v);
                }
            }
            for b in layer.bias_mut() {
                *b += rng.uniform(-eps, eps);
            }
        }
        out
    }

    /// Architecture summary: `[in, w1, …, out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.input_dim()];
        d.extend(self.layers.iter().map(|l| l.out_dim()));
        d
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.in_dim() * l.out_dim() + l.out_dim()).sum()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network[{}", self.input_dim())?;
        for layer in &self.layers {
            write!(f, " -> {} ({})", layer.out_dim(), layer.activation())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Network {
        Network::new(vec![
            DenseLayer::from_rows(
                &[&[1.0, -2.0], &[-2.0, 1.0], &[1.0, -1.0]],
                &[0.0; 3],
                Activation::Relu,
            ),
            DenseLayer::from_rows(&[&[2.0, 2.0, -1.0]], &[0.0], Activation::Relu),
        ])
        .expect("toy network is well-formed")
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert_eq!(Network::new(vec![]).unwrap_err(), NnError::EmptyNetwork);
        let bad = Network::new(vec![
            DenseLayer::from_rows(&[&[1.0]], &[0.0], Activation::Relu),
            DenseLayer::from_rows(&[&[1.0, 1.0]], &[0.0], Activation::Relu),
        ]);
        assert!(matches!(bad.unwrap_err(), NnError::DimensionMismatch { .. }));
    }

    #[test]
    fn forward_matches_fig2_example() {
        // Figure 2 of the paper: x = (1, -1) gives n1=3, n2=0(-3 clamped), n3=2,
        // n4 = relu(2*3 + 2*0 - 2) = 4.
        let net = toy();
        assert_eq!(net.forward(&[1.0, -1.0]).unwrap(), vec![4.0]);
    }

    #[test]
    fn forward_trace_layers_agree_with_forward() {
        let net = toy();
        let trace = net.forward_trace(&[0.5, -0.25]).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1], net.forward(&[0.5, -0.25]).unwrap());
    }

    #[test]
    fn forward_rejects_wrong_input_len() {
        let net = toy();
        assert!(net.forward(&[1.0]).is_err());
        assert!(net.forward_trace(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn slice_composes_to_full_network() {
        let net = toy();
        let front = net.slice(1, 1);
        let back = net.slice(2, 2);
        let x = [0.3, -0.8];
        let mid = front.forward(&x).unwrap();
        let out = back.forward(&mid).unwrap();
        assert_eq!(out, net.forward(&x).unwrap());
    }

    #[test]
    fn dims_and_params() {
        let net = toy();
        assert_eq!(net.dims(), vec![2, 3, 1]);
        assert_eq!(net.num_params(), (2 * 3 + 3) + (3 + 1));
    }

    #[test]
    fn perturbed_stays_close() {
        let mut rng = Rng::seeded(9);
        let net = toy();
        let tuned = net.perturbed(1e-3, &mut rng);
        let d = net.max_param_diff(&tuned).unwrap();
        assert!(d > 0.0 && d <= 1e-3, "diff {d}");
    }

    #[test]
    fn layer_uses_one_based_indexing() {
        let net = toy();
        assert_eq!(net.layer(1).out_dim(), 3);
        assert_eq!(net.layer(2).out_dim(), 1);
    }

    #[test]
    fn random_network_has_dims() {
        let mut rng = Rng::seeded(1);
        let net = Network::random(&[4, 8, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        assert_eq!(net.dims(), vec![4, 8, 3]);
        assert_eq!(net.layer(2).activation(), Activation::Sigmoid);
    }

    #[test]
    fn display_shows_architecture() {
        let s = toy().to_string();
        assert!(s.contains("2") && s.contains("ReLU"));
    }

    mod properties {
        use super::*;
        use covern_tensor::Rng;
        use proptest::prelude::*;

        proptest! {
            /// Slicing at any point and composing the halves reproduces the
            /// full network function.
            #[test]
            fn prop_slice_composition(
                seed in 0u64..5_000,
                cut_t in 0.0f64..1.0,
                t in proptest::collection::vec(-1.0f64..1.0, 3),
            ) {
                let mut rng = Rng::seeded(seed);
                let net = Network::random(&[3, 6, 5, 4, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
                let n = net.num_layers();
                let cut = 1 + ((cut_t * (n - 1) as f64) as usize).min(n - 2);
                let front = net.slice(1, cut);
                let back = net.slice(cut + 1, n);
                let mid = front.forward(&t).unwrap();
                let composed = back.forward(&mid).unwrap();
                let direct = net.forward(&t).unwrap();
                for (a, b) in composed.iter().zip(direct.iter()) {
                    prop_assert!((a - b).abs() < 1e-12);
                }
            }

            /// The last trace entry always equals the forward output, and
            /// every entry has the layer's width.
            #[test]
            fn prop_trace_consistency(
                seed in 0u64..5_000,
                t in proptest::collection::vec(-1.0f64..1.0, 3),
            ) {
                let mut rng = Rng::seeded(seed);
                let net = Network::random(&[3, 5, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
                let trace = net.forward_trace(&t).unwrap();
                prop_assert_eq!(trace.len(), net.num_layers());
                for (k, vals) in trace.iter().enumerate() {
                    prop_assert_eq!(vals.len(), net.layer(k + 1).out_dim());
                }
                prop_assert_eq!(trace.last().unwrap().clone(), net.forward(&t).unwrap());
            }

            /// Perturbation drift is bounded by the perturbation size.
            #[test]
            fn prop_perturbation_bounded(seed in 0u64..5_000, eps in 0.0f64..0.1) {
                let mut rng = Rng::seeded(seed);
                let net = Network::random(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
                let tuned = net.perturbed(eps, &mut rng);
                let d = net.max_param_diff(&tuned).unwrap();
                prop_assert!(d <= eps + 1e-12, "drift {d} exceeds eps {eps}");
            }
        }
    }
}
