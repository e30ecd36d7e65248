//! Batched, transpose-packed linear-algebra kernels for the reachability
//! hot paths.
//!
//! Every verification path in the workspace — interval / symbolic / zonotope
//! layer transformers, branch-and-bound concrete probes, Lipschitz sampling,
//! campaign replay — bottoms out in dense affine maps. This module provides
//! the shared kernels those paths run on:
//!
//! * [`SplitMatrix`] — a weight matrix pre-split into its positive and
//!   negative parts (both row-major and transpose-packed), the basis of the
//!   **fused interval matvec/matmul** that propagates lower and upper bounds
//!   in a single pass with no per-element sign branches;
//! * [`matmul`] — slice-based axpy matrix product (the zonotope generator
//!   propagation primitive);
//! * [`batch_affine_packed`] / [`batch_affine_nt`] — the batched forward
//!   primitive `X·Wᵀ + b` that turns N-point network evaluation into one
//!   matrix product per layer.
//!
//! # Two kernel families: Deterministic and Outward
//!
//! The module exports two contracts, selected per process via
//! [`KernelMode`]:
//!
//! * **Deterministic** (the default) — every kernel accumulates each output
//!   element along a **fixed, sequential reduction order** (ascending inner
//!   index), independent of batch position and thread count. Two
//!   consequences, both load bearing for the continuous-verification
//!   pipeline:
//!
//!   1. repeated calls — on any machine, at any thread count — produce
//!      byte-identical results, so the branch-and-bound engine's
//!      schedule-independent-verdict guarantee survives the kernel rewiring;
//!   2. the results are bit-identical to the naive one-vector-at-a-time
//!      loops they replace ([`Matrix::matvec`], [`Matrix::matmul`], the
//!      historical interval transformer), because those used the same
//!      reduction order. `tests/kernel_equivalence.rs` locks this in.
//!
//!   The speed does **not** come from reassociating sums (which would change
//!   results): it comes from the *axpy formulation*. Instead of computing
//!   each output as an isolated dot product — a serial chain of dependent
//!   adds that cannot use SIMD — the kernels broadcast one input element
//!   across a contiguous row of outputs, so the compiler vectorises across
//!   *independent* accumulators while each accumulator still sees its terms
//!   in ascending order. The transpose packing is what makes those output
//!   rows contiguous.
//!
//! * **Outward** (sound-with-slack) — the fast path for probe batches,
//!   Lipschitz sampling, and any propagation whose result only needs to
//!   *contain* the truth, not reproduce historical bits. These kernels are
//!   free to reassociate: hand-unrolled 4-wide multi-accumulator lanes
//!   ([`SplitMatrix::fused_interval_matvec_outward`] runs Rump
//!   midpoint–radius form at half the flops of the split form),
//!   cache-blocked matrix products ([`matmul_blocked`],
//!   [`batch_affine_outward`] reuse each streamed row across several
//!   outputs). Soundness is restored *a posteriori*: every interval result
//!   is widened outward by a per-operation rounding-error bound
//!   proportional to the reduction depth (see [`outward_err_scale`]),
//!   finished with [`f64::next_down`]/[`f64::next_up`], so **any**
//!   summation order is sound and the Outward interval provably contains
//!   both the exact real result and the Deterministic family's result
//!   (`tests/kernel_rounding.rs` property-tests this containment).
//!   Canonical reports, proof reuse, and the cluster differential suites
//!   pin Deterministic; Outward never feeds a byte-compared artifact.
//!
//! # Numeric domain
//!
//! Kernels assume **finite** inputs. A `0.0 · ∞` product (possible when a
//! zero weight meets an unbounded interval) yields NaN — exactly as in the
//! naive paths they replace, which multiplied every weight against every
//! bound as well. Target boxes may be unbounded; propagated states are not.

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel family the reachability hot paths run on.
///
/// Selected once per process via [`set_kernel_mode`] (the CLI's
/// `--kernel-mode` flag); consumers read it through [`kernel_mode`] at each
/// dispatch point. The default is [`KernelMode::Deterministic`], which every
/// byte-identity guarantee in the workspace is pinned against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Fixed-lane-order kernels: bit-identical across calls, machines, and
    /// thread counts, and bit-compatible with the historical naive loops.
    Deterministic,
    /// Reassociated, cache-blocked kernels whose interval results are
    /// widened outward by a rounding-error bound — sound under any
    /// summation order, not byte-stable across kernel revisions.
    Outward,
}

/// Process-global kernel mode; `0 = Deterministic`, `1 = Outward`.
static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the process-global kernel family.
///
/// Takes effect for every subsequent kernel dispatch in the process
/// (abstract transformers, batched forward passes). Verdict streams stay
/// schedule-independent in either mode; only Deterministic additionally
/// guarantees byte-identity with historical reports.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The process-global kernel family selected by [`set_kernel_mode`].
pub fn kernel_mode() -> KernelMode {
    if KERNEL_MODE.load(Ordering::Relaxed) == 0 {
        KernelMode::Deterministic
    } else {
        KernelMode::Outward
    }
}

/// Scale of the outward rounding compensation for a reduction of `terms`
/// summands: `8·(terms + 4)·ε`.
///
/// Standard floating-point summation analysis bounds the error of *any*
/// summation order of `n` terms by `γ_n · Σ|termᵢ|` with
/// `γ_n ≈ n·ε`. The Outward kernels widen by `outward_err_scale(n) · magsum`
/// where `magsum` upper-bounds the sum of term magnitudes — the `8·(n+4)`
/// factor leaves a ≥ 4× margin over the *combined* error of the Outward
/// computation and the Deterministic computation it must contain, plus the
/// midpoint/radius conversion round-off, so containment of both the real
/// result and the Deterministic result holds with room to spare.
pub fn outward_err_scale(terms: usize) -> f64 {
    8.0 * (terms as f64 + 4.0) * f64::EPSILON
}

/// Adds `a · src` into `dst` element-wise. The vectorisable inner step all
/// kernels are built from; each `dst` element receives exactly one add per
/// call, so reduction order per element is the caller's loop order.
#[inline(always)]
fn axpy(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

/// A weight matrix split once into its positive part `max(w, 0)` and
/// negative part `min(w, 0)`, transpose-packed for the vectorised interval
/// matvec, with every other kernel layout derived from that split on first
/// use.
///
/// The split is what makes interval propagation branch-free: with
/// `pos + neg = w` and the parts sign-disjoint,
///
/// ```text
/// lo_out = pos·lo + neg·hi        hi_out = pos·hi + neg·lo
/// ```
///
/// are sound and exact for the affine map, and each output accumulates in
/// plain ascending-index order. Layers cache their split via
/// `covern_nn::DenseLayer::split_weights`, so the split cost is paid once
/// per layer *per network*, not once per propagated box — the difference
/// between O(layers) and O(layers × boxes) splits in branch-and-bound.
///
/// # Layouts
///
/// [`compile`](Self::compile) builds only the transpose-packed split (two
/// copies of the weights' size): every Deterministic domain reads it, and
/// the default box path reads nothing else. The other layouts are built
/// from it on first use, each in its own [`OnceLock`], with the same
/// element formulas as an eager build, so every kernel result is
/// bit-identical whichever layouts exist:
///
/// * the row-major split (the coefficient-matrix sweeps of
///   [`fused_interval_matmul`](Self::fused_interval_matmul) and its
///   Outward twin);
/// * the Outward midpoint–radius pair `w_t = pos + neg`,
///   `abs_t = pos − neg` (only [`fused_interval_matvec_outward`]).
///
/// Equality compares the weights the split encodes, never which layouts
/// happen to be built.
///
/// [`fused_interval_matvec_outward`]: Self::fused_interval_matvec_outward
///
/// # Example
///
/// ```
/// use covern_tensor::{kernels::SplitMatrix, Matrix};
///
/// let w = Matrix::from_rows(&[&[1.0, -2.0]]);
/// let s = SplitMatrix::compile(&w);
/// let (mut lo, mut hi) = (vec![0.0], vec![0.0]);
/// s.fused_interval_matvec(&[-1.0, -1.0], &[1.0, 1.0], &[0.0], &mut lo, &mut hi);
/// assert_eq!((lo[0], hi[0]), (-3.0, 3.0));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    rows: usize,
    cols: usize,
    /// Transpose-packed `max(w, 0)`: entry `(j, i)` at `j·rows + i`.
    pos_t: Vec<f64>,
    /// Transpose-packed `min(w, 0)`.
    neg_t: Vec<f64>,
    /// Per-row `Σ_j |w_ij|` — the magnitude budget the Outward kernels
    /// scale their rounding compensation by (one value per row, so it is
    /// built with the split rather than on demand).
    rowabs: Vec<f64>,
    /// Row-major `(max(w, 0), min(w, 0))`, built on first use.
    row_major: OnceLock<(Vec<f64>, Vec<f64>)>,
    /// Transpose-packed `(w, |w|)` for the Outward midpoint–radius matvec,
    /// built on first use.
    mid_rad: OnceLock<(Vec<f64>, Vec<f64>)>,
}

impl PartialEq for SplitMatrix {
    /// Equal iff the encoded weights are equal; built layouts are ignored
    /// (they are pure functions of the split).
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self.pos_t == other.pos_t
            && self.neg_t == other.neg_t
    }
}

impl SplitMatrix {
    /// Splits `w` into positive and negative parts and transpose-packs
    /// them; the other layouts follow on first use.
    pub fn compile(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let data = w.as_slice();
        let mut pos_t = vec![0.0; data.len()];
        let mut neg_t = vec![0.0; data.len()];
        let mut rowabs = vec![0.0; rows];
        for i in 0..rows {
            for j in 0..cols {
                let v = data[i * cols + j];
                let (p, n) = (v.max(0.0), v.min(0.0));
                pos_t[j * rows + i] = p;
                neg_t[j * rows + i] = n;
                rowabs[i] += p - n;
            }
        }
        Self {
            rows,
            cols,
            pos_t,
            neg_t,
            rowabs,
            row_major: OnceLock::new(),
            mid_rad: OnceLock::new(),
        }
    }

    /// The row-major split `(pos, neg)`: entry `(i, j)` at `i·cols + j`.
    fn row_major(&self) -> (&[f64], &[f64]) {
        let (pos, neg) = self.row_major.get_or_init(|| {
            let (rows, cols) = (self.rows, self.cols);
            let mut pos = vec![0.0; self.pos_t.len()];
            let mut neg = vec![0.0; self.neg_t.len()];
            for j in 0..cols {
                for i in 0..rows {
                    pos[i * cols + j] = self.pos_t[j * rows + i];
                    neg[i * cols + j] = self.neg_t[j * rows + i];
                }
            }
            (pos, neg)
        });
        (pos, neg)
    }

    /// The transpose-packed Outward pair `(w_t, abs_t)`.
    fn mid_rad(&self) -> (&[f64], &[f64]) {
        let (w_t, abs_t) = self.mid_rad.get_or_init(|| {
            let w_t = self.pos_t.iter().zip(&self.neg_t).map(|(&p, &n)| p + n).collect();
            let abs_t = self.pos_t.iter().zip(&self.neg_t).map(|(&p, &n)| p - n).collect();
            (w_t, abs_t)
        });
        (w_t, abs_t)
    }

    /// Number of rows (output dimension of the affine map).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input dimension of the affine map).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fused interval affine map: writes the bounds of `W·[lo, hi] + bias`
    /// into `lo_out` / `hi_out` in one pass over the transpose-packed split
    /// weights.
    ///
    /// Bit-identical to accumulating `bias[i] + Σ_j w_ij·[lo_j, hi_j]` with
    /// sign-aware interval scaling in ascending `j` order (the historical
    /// box-domain transformer): per `j`, one of the two split products is an
    /// exact `0.0` and adding it is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the matrix shape.
    pub fn fused_interval_matvec(
        &self,
        lo: &[f64],
        hi: &[f64],
        bias: &[f64],
        lo_out: &mut [f64],
        hi_out: &mut [f64],
    ) {
        assert_eq!(lo.len(), self.cols, "lo length mismatch");
        assert_eq!(hi.len(), self.cols, "hi length mismatch");
        assert_eq!(bias.len(), self.rows, "bias length mismatch");
        assert_eq!(lo_out.len(), self.rows, "lo_out length mismatch");
        assert_eq!(hi_out.len(), self.rows, "hi_out length mismatch");
        lo_out.copy_from_slice(bias);
        hi_out.copy_from_slice(bias);
        for j in 0..self.cols {
            let (lj, hj) = (lo[j], hi[j]);
            let p = &self.pos_t[j * self.rows..(j + 1) * self.rows];
            let n = &self.neg_t[j * self.rows..(j + 1) * self.rows];
            // Broadcast input j across all outputs: independent accumulator
            // per output (vectorisable), ascending-j order per output.
            for i in 0..self.rows {
                lo_out[i] += p[i] * lj + n[i] * hj;
                hi_out[i] += p[i] * hj + n[i] * lj;
            }
        }
    }

    /// Fused interval matrix product: bounds of `W·[Lo, Hi]` where `Lo` and
    /// `Hi` are element-wise lower/upper coefficient matrices.
    ///
    /// This is how the symbolic domain pushes its whole coefficient matrix
    /// through a layer: row-axpy sweeps over the columns of the coefficient
    /// matrices instead of per-entry `get`/`set` loops. Accumulation order
    /// per output entry is ascending `j` (matching the historical scalar
    /// loop).
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` shapes disagree with each other or with
    /// `self.cols()` rows.
    pub fn fused_interval_matmul(&self, lo: &Matrix, hi: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(lo.shape(), hi.shape(), "lo/hi shape mismatch");
        assert_eq!(lo.rows(), self.cols, "inner dimension mismatch");
        let d = lo.cols();
        let (pos, neg) = self.row_major();
        let mut lo_out = Matrix::zeros(self.rows, d);
        let mut hi_out = Matrix::zeros(self.rows, d);
        for i in 0..self.rows {
            let p = &pos[i * self.cols..(i + 1) * self.cols];
            let n = &neg[i * self.cols..(i + 1) * self.cols];
            for j in 0..self.cols {
                let (pj, nj) = (p[j], n[j]);
                if pj == 0.0 && nj == 0.0 {
                    continue;
                }
                let src_lo = lo.row(j);
                let src_hi = hi.row(j);
                let dst_lo = lo_out.row_mut(i);
                for (dst, (&l, &h)) in dst_lo.iter_mut().zip(src_lo.iter().zip(src_hi)) {
                    *dst += pj * l + nj * h;
                }
                let dst_hi = hi_out.row_mut(i);
                for (dst, (&l, &h)) in dst_hi.iter_mut().zip(src_lo.iter().zip(src_hi)) {
                    *dst += pj * h + nj * l;
                }
            }
        }
        (lo_out, hi_out)
    }

    /// Outward-family interval affine map: a sound enclosure of
    /// `W·[lo, hi] + bias` computed in Rump midpoint–radius form and widened
    /// by a rounding-error bound.
    ///
    /// Per column the kernel runs `yc += w·c` and `yr += |w|·r` with
    /// `c = (lo+hi)/2`, `r = (hi−lo)/2` — **half the flops** of the
    /// sign-split form (2 mul + 2 add per entry instead of 4 + 4) — in
    /// hand-unrolled 4-wide column lanes that are free to reassociate. The
    /// result `[yc − yr, yc + yr]` is then dilated by
    /// [`outward_err_scale`]`(cols) · (rowabs_i·M + |bias_i|)` (where `M`
    /// bounds the input magnitudes) and finished with
    /// [`f64::next_down`]/[`f64::next_up`], which makes it a superset of
    /// the exact real interval *and* of [`Self::fused_interval_matvec`]'s
    /// result under any summation order.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the matrix shape.
    pub fn fused_interval_matvec_outward(
        &self,
        lo: &[f64],
        hi: &[f64],
        bias: &[f64],
        lo_out: &mut [f64],
        hi_out: &mut [f64],
    ) {
        assert_eq!(lo.len(), self.cols, "lo length mismatch");
        assert_eq!(hi.len(), self.cols, "hi length mismatch");
        assert_eq!(bias.len(), self.rows, "bias length mismatch");
        assert_eq!(lo_out.len(), self.rows, "lo_out length mismatch");
        assert_eq!(hi_out.len(), self.rows, "hi_out length mismatch");
        let rows = self.rows;
        let (w_t, abs_t) = self.mid_rad();
        // lo_out accumulates the midpoint image yc (seeded with the exact
        // bias), hi_out the radius image yr.
        lo_out.copy_from_slice(bias);
        hi_out.fill(0.0);
        let mut mmax = 0.0f64;
        let mut j = 0;
        while j + 4 <= self.cols {
            let (c0, r0) = (0.5 * (lo[j] + hi[j]), 0.5 * (hi[j] - lo[j]));
            let (c1, r1) = (0.5 * (lo[j + 1] + hi[j + 1]), 0.5 * (hi[j + 1] - lo[j + 1]));
            let (c2, r2) = (0.5 * (lo[j + 2] + hi[j + 2]), 0.5 * (hi[j + 2] - lo[j + 2]));
            let (c3, r3) = (0.5 * (lo[j + 3] + hi[j + 3]), 0.5 * (hi[j + 3] - lo[j + 3]));
            mmax = mmax.max(c0.abs() + r0).max(c1.abs() + r1).max(c2.abs() + r2).max(c3.abs() + r3);
            let w0 = &w_t[j * rows..(j + 1) * rows];
            let w1 = &w_t[(j + 1) * rows..(j + 2) * rows];
            let w2 = &w_t[(j + 2) * rows..(j + 3) * rows];
            let w3 = &w_t[(j + 3) * rows..(j + 4) * rows];
            let a0 = &abs_t[j * rows..(j + 1) * rows];
            let a1 = &abs_t[(j + 1) * rows..(j + 2) * rows];
            let a2 = &abs_t[(j + 2) * rows..(j + 3) * rows];
            let a3 = &abs_t[(j + 3) * rows..(j + 4) * rows];
            // Four columns per sweep: each accumulator is loaded and stored
            // once per four inputs, and the single-expression adds let the
            // compiler fuse/reassociate freely — the widening below absorbs
            // whatever order it picks.
            for i in 0..rows {
                lo_out[i] += w0[i] * c0 + w1[i] * c1 + w2[i] * c2 + w3[i] * c3;
                hi_out[i] += a0[i] * r0 + a1[i] * r1 + a2[i] * r2 + a3[i] * r3;
            }
            j += 4;
        }
        while j < self.cols {
            let (c, r) = (0.5 * (lo[j] + hi[j]), 0.5 * (hi[j] - lo[j]));
            mmax = mmax.max(c.abs() + r);
            let w = &w_t[j * rows..(j + 1) * rows];
            let a = &abs_t[j * rows..(j + 1) * rows];
            for i in 0..rows {
                lo_out[i] += w[i] * c;
                hi_out[i] += a[i] * r;
            }
            j += 1;
        }
        let scale = outward_err_scale(self.cols);
        for i in 0..rows {
            let err = scale * (self.rowabs[i] * mmax + bias[i].abs());
            let (yc, yr) = (lo_out[i], hi_out[i]);
            lo_out[i] = (yc - yr - err).next_down();
            hi_out[i] = (yc + yr + err).next_up();
        }
    }

    /// Outward-family fused interval matrix product, plus the per-output-row
    /// constant slack that makes its reassociated coefficients sound.
    ///
    /// Same contract as [`Self::fused_interval_matmul`], but the row sweeps
    /// are blocked two output rows at a time (each source row streams once
    /// per *two* outputs) and may reassociate. Because the result columns
    /// are **coefficients of affine functions**, widening the entries
    /// themselves would be unsound (a larger coefficient is not a looser
    /// bound when the input is negative); instead the kernel returns a
    /// per-output-row slack computed against `xmax` — the per-input-
    /// dimension magnitude bound `max(|x_d|)` of the box the coefficients
    /// will be evaluated over — which the caller folds into its constant
    /// terms (`lo_const − slack`, `hi_const + slack`). The slack bounds the
    /// value error of *any* summation order (including the Deterministic
    /// family's), so the shifted affine bounds stay sound.
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` shapes disagree with each other or with
    /// `self.cols()` rows, or if `xmax.len() != lo.cols()`.
    pub fn fused_interval_matmul_outward(
        &self,
        lo: &Matrix,
        hi: &Matrix,
        xmax: &[f64],
    ) -> (Matrix, Matrix, Vec<f64>) {
        assert_eq!(lo.shape(), hi.shape(), "lo/hi shape mismatch");
        assert_eq!(lo.rows(), self.cols, "inner dimension mismatch");
        assert_eq!(xmax.len(), lo.cols(), "xmax length mismatch");
        let d = lo.cols();
        let mut lo_out = Matrix::zeros(self.rows, d);
        let mut hi_out = Matrix::zeros(self.rows, d);
        // Per-column magnitude bound over both coefficient matrices: the
        // rounding magnitude budget of one output entry in column `k` is
        // `rowabs_i · cmax_k`.
        let mut cmax = vec![0.0f64; d];
        for (l, h) in lo.as_slice().chunks_exact(d).zip(hi.as_slice().chunks_exact(d)) {
            for (m, (&lv, &hv)) in cmax.iter_mut().zip(l.iter().zip(h)) {
                *m = m.max(lv.abs()).max(hv.abs());
            }
        }
        // Two output rows per sweep: the source coefficient rows stream
        // once per pair instead of once per row.
        let (pos, neg) = self.row_major();
        let mut i = 0;
        while i + 2 <= self.rows {
            let (lo0, lo1) = split_two_rows(&mut lo_out, i, d);
            let (hi0, hi1) = split_two_rows(&mut hi_out, i, d);
            let p0 = &pos[i * self.cols..(i + 1) * self.cols];
            let n0 = &neg[i * self.cols..(i + 1) * self.cols];
            let p1 = &pos[(i + 1) * self.cols..(i + 2) * self.cols];
            let n1 = &neg[(i + 1) * self.cols..(i + 2) * self.cols];
            for j in 0..self.cols {
                let (p0j, n0j, p1j, n1j) = (p0[j], n0[j], p1[j], n1[j]);
                if p0j == 0.0 && n0j == 0.0 && p1j == 0.0 && n1j == 0.0 {
                    continue;
                }
                let src_lo = lo.row(j);
                let src_hi = hi.row(j);
                for ((((dl0, dh0), dl1), dh1), (&l, &h)) in lo0
                    .iter_mut()
                    .zip(hi0.iter_mut())
                    .zip(lo1.iter_mut())
                    .zip(hi1.iter_mut())
                    .zip(src_lo.iter().zip(src_hi))
                {
                    *dl0 += p0j * l + n0j * h;
                    *dh0 += p0j * h + n0j * l;
                    *dl1 += p1j * l + n1j * h;
                    *dh1 += p1j * h + n1j * l;
                }
            }
            i += 2;
        }
        if i < self.rows {
            let p = &pos[i * self.cols..(i + 1) * self.cols];
            let n = &neg[i * self.cols..(i + 1) * self.cols];
            for j in 0..self.cols {
                let (pj, nj) = (p[j], n[j]);
                if pj == 0.0 && nj == 0.0 {
                    continue;
                }
                let src_lo = lo.row(j);
                let src_hi = hi.row(j);
                for ((dl, dh), (&l, &h)) in lo_out
                    .row_mut(i)
                    .iter_mut()
                    .zip(hi_out.row_mut(i).iter_mut())
                    .zip(src_lo.iter().zip(src_hi))
                {
                    *dl += pj * l + nj * h;
                    *dh += pj * h + nj * l;
                }
            }
        }
        // Value-error slack of any summation order, evaluated against the
        // input box: Σ_k err_entry(i,k)·xmax_k ≤ scale·rowabs_i·Σ_k cmax_k·xmax_k.
        let s: f64 = cmax.iter().zip(xmax).map(|(&c, &x)| c * x).sum();
        let scale = outward_err_scale(self.cols);
        let slack = self.rowabs.iter().map(|&ra| (scale * ra * s).next_up()).collect();
        (lo_out, hi_out, slack)
    }
}

/// Borrows rows `i` and `i+1` of `m` (each `width` wide) as disjoint
/// mutable slices.
fn split_two_rows(m: &mut Matrix, i: usize, width: usize) -> (&mut [f64], &mut [f64]) {
    let (a, b) = m.as_mut_slice()[i * width..(i + 2) * width].split_at_mut(width);
    (a, b)
}

/// Packs the transpose of `w` (entry `(j, i)` of the result is `w[i][j]`)
/// using the non-allocating [`Matrix::col_iter`] column view.
///
/// Forward batching wants weight *columns* contiguous (see
/// [`batch_affine_packed`]); layers cache this packing next to their split
/// weights.
pub fn pack_transpose(w: &Matrix) -> Matrix {
    let mut data = Vec::with_capacity(w.rows() * w.cols());
    for j in 0..w.cols() {
        data.extend(w.col_iter(j));
    }
    Matrix::from_vec(w.cols(), w.rows(), data)
}

/// Matrix product `a · b` as slice-based row axpy sweeps.
///
/// Same `i-k-j` loop nest as the naive [`Matrix::matmul`] — so each output
/// entry reduces over `k` in ascending order and the result is
/// bit-identical on finite inputs — but the inner axpy runs on borrowed row
/// slices with no per-element bounds checks, which is what lets it
/// vectorise. Zero `a`-entries skip their whole sweep, mirroring the naive
/// loop's skip; note this only pays off for sparse *left* operands (the
/// zonotope path's left operand is a dense weight matrix — its win comes
/// from the vectorised sweeps, not the skip).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let (m, k) = (a.rows(), a.cols());
    let mut out = Matrix::zeros(m, b.cols());
    for i in 0..m {
        let arow = &a.as_slice()[i * k..(i + 1) * k];
        let orow = out.row_mut(i);
        // Four `a`-elements per sweep (see `batch_affine_packed` for the
        // traffic argument); per-element adds stay sequential in ascending
        // k, and all-zero `a` quads skip their sweep entirely.
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                kk += 4;
                continue;
            }
            let b0 = b.row(kk);
            let b1 = b.row(kk + 1);
            let b2 = b.row(kk + 2);
            let b3 = b.row(kk + 3);
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut t = *o;
                t += a0 * v0;
                t += a1 * v1;
                t += a2 * v2;
                t += a3 * v3;
                *o = t;
            }
            kk += 4;
        }
        while kk < k {
            let av = arow[kk];
            if av != 0.0 {
                axpy(orow, av, b.row(kk));
            }
            kk += 1;
        }
    }
    out
}

/// Outward-family matrix product `a · b`: cache-blocked `4×4` tiles —
/// four output rows share four streamed `b` rows — free to reassociate.
///
/// Each inner sweep retires sixteen multiply-adds against eight loads and
/// four stores, versus the Deterministic [`matmul`]'s four multiply-adds
/// per five loads and one store: the tile amortises the read-modify-write
/// of the output rows across four `b` rows, and each output element is a
/// four-term independent sum the compiler can evaluate as an FMA tree. On
/// the zonotope generator shapes (`64×64` weights against `64×192`
/// generators) `b` traffic also drops 4×. Entry values differ from
/// [`matmul`] only by summation-order round-off (the standard
/// `γ_n·Σ|terms|` bound); callers on the Outward path absorb that under
/// the same slack conventions that already cover the Deterministic
/// product's own round-off (`covern-absint`'s recorded abstractions are
/// dilated outward — see its crate docs).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let mut i = 0;
    while i + 4 <= m {
        let a0 = &a.as_slice()[i * k..(i + 1) * k];
        let a1 = &a.as_slice()[(i + 1) * k..(i + 2) * k];
        let a2 = &a.as_slice()[(i + 2) * k..(i + 3) * k];
        let a3 = &a.as_slice()[(i + 3) * k..(i + 4) * k];
        let block = &mut out.as_mut_slice()[i * n..(i + 4) * n];
        let (o0, rest) = block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut kk = 0;
        while kk + 4 <= k {
            let (b0, b1, b2, b3) = (b.row(kk), b.row(kk + 1), b.row(kk + 2), b.row(kk + 3));
            let (a00, a01, a02, a03) = (a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]);
            let (a10, a11, a12, a13) = (a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]);
            let (a20, a21, a22, a23) = (a2[kk], a2[kk + 1], a2[kk + 2], a2[kk + 3]);
            let (a30, a31, a32, a33) = (a3[kk], a3[kk + 1], a3[kk + 2], a3[kk + 3]);
            for (((((((&v0, &v1), &v2), &v3), e0), e1), e2), e3) in b0
                .iter()
                .zip(b1)
                .zip(b2)
                .zip(b3)
                .zip(o0.iter_mut())
                .zip(o1.iter_mut())
                .zip(o2.iter_mut())
                .zip(o3.iter_mut())
            {
                *e0 += a00 * v0 + a01 * v1 + a02 * v2 + a03 * v3;
                *e1 += a10 * v0 + a11 * v1 + a12 * v2 + a13 * v3;
                *e2 += a20 * v0 + a21 * v1 + a22 * v2 + a23 * v3;
                *e3 += a30 * v0 + a31 * v1 + a32 * v2 + a33 * v3;
            }
            kk += 4;
        }
        while kk < k {
            let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            let brow = b.row(kk);
            for ((((&bv, e0), e1), e2), e3) in brow
                .iter()
                .zip(o0.iter_mut())
                .zip(o1.iter_mut())
                .zip(o2.iter_mut())
                .zip(o3.iter_mut())
            {
                *e0 += v0 * bv;
                *e1 += v1 * bv;
                *e2 += v2 * bv;
                *e3 += v3 * bv;
            }
            kk += 1;
        }
        i += 4;
    }
    while i < m {
        let arow = &a.as_slice()[i * k..(i + 1) * k];
        let orow = out.row_mut(i);
        for (kk, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                axpy(orow, av, b.row(kk));
            }
        }
        i += 1;
    }
    out
}

/// Batched affine map `x · wtᵀ... + bias` against a **pre-packed transposed**
/// weight matrix `wt` (shape `in_dim × out_dim`, see [`pack_transpose`]):
/// row `p` of the result is `W·x_p + bias`.
///
/// Each output element accumulates over `k` in ascending order — the same
/// order as [`Matrix::matvec`] — while the inner loop sweeps a contiguous
/// `wt` row across all outputs of one point, so independent accumulators
/// vectorise. The bias lands after the sum, exactly like the historical
/// `pre_activation` (`matvec` then bias add), keeping batch rows
/// bit-identical to single forward passes.
///
/// # Panics
///
/// Panics if `x.cols() != wt.rows()` or `bias.len() != wt.cols()`.
pub fn batch_affine_packed(x: &Matrix, wt: &Matrix, bias: &[f64]) -> Matrix {
    assert_eq!(x.cols(), wt.rows(), "batch_affine_packed dimension mismatch");
    assert_eq!(bias.len(), wt.cols(), "bias length mismatch");
    let (npts, k, odim) = (x.rows(), x.cols(), wt.cols());
    let mut out = Matrix::zeros(npts, odim);
    for p in 0..npts {
        let xrow = &x.as_slice()[p * k..(p + 1) * k];
        let orow = out.row_mut(p);
        // Four input elements per sweep: the output row is loaded and
        // stored once per *four* weight rows instead of once per row. The
        // four adds into each output element stay sequential statements in
        // ascending-k order, so the per-element reduction order — and with
        // it bit-compatibility with `matvec` — is unchanged.
        let mut kk = 0;
        while kk + 4 <= k {
            let (x0, x1, x2, x3) = (xrow[kk], xrow[kk + 1], xrow[kk + 2], xrow[kk + 3]);
            let w0 = wt.row(kk);
            let w1 = wt.row(kk + 1);
            let w2 = wt.row(kk + 2);
            let w3 = wt.row(kk + 3);
            for ((((o, &a0), &a1), &a2), &a3) in orow.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
                let mut t = *o;
                t += x0 * a0;
                t += x1 * a1;
                t += x2 * a2;
                t += x3 * a3;
                *o = t;
            }
            kk += 4;
        }
        while kk < k {
            axpy(orow, xrow[kk], wt.row(kk));
            kk += 1;
        }
        for (o, &b) in orow.iter_mut().zip(bias) {
            *o += b;
        }
    }
    out
}

/// Convenience wrapper around [`batch_affine_packed`] for callers holding
/// the weights in their natural `out_dim × in_dim` layout: packs the
/// transpose on the fly (one pass, amortised over the whole batch).
///
/// Hot layers should cache the packing instead — see
/// `covern_nn::DenseLayer::forward_batch`.
///
/// # Panics
///
/// Panics if `x.cols() != w.cols()` or `bias.len() != w.rows()`.
pub fn batch_affine_nt(x: &Matrix, w: &Matrix, bias: &[f64]) -> Matrix {
    batch_affine_packed(x, &pack_transpose(w), bias)
}

/// Outward-family batched affine map: same contract and shapes as
/// [`batch_affine_packed`], blocked two points at a time and free to
/// reassociate.
///
/// Each `wt` row streams once per *two* batch points, and the four adds of
/// a quad sit in one expression so the compiler can build FMA trees instead
/// of the Deterministic family's serial add chain. Results are concrete
/// point evaluations (no widening): each row differs from
/// [`batch_affine_packed`]'s by summation-order round-off only, which the
/// probe/sampling consumers tolerate — a probe hit is always re-checked
/// against the abstract domain, and sampled Lipschitz bounds are heuristic
/// lower bounds by construction. Row `p` depends only on point `p` and its
/// batch parity, never on neighbouring values, so identical batches give
/// identical results at any thread count.
///
/// # Panics
///
/// Panics if `x.cols() != wt.rows()` or `bias.len() != wt.cols()`.
pub fn batch_affine_outward(x: &Matrix, wt: &Matrix, bias: &[f64]) -> Matrix {
    assert_eq!(x.cols(), wt.rows(), "batch_affine_outward dimension mismatch");
    assert_eq!(bias.len(), wt.cols(), "bias length mismatch");
    let (npts, k, odim) = (x.rows(), x.cols(), wt.cols());
    let mut out = Matrix::zeros(npts, odim);
    let mut p = 0;
    while p + 2 <= npts {
        let x0 = &x.as_slice()[p * k..(p + 1) * k];
        let x1 = &x.as_slice()[(p + 1) * k..(p + 2) * k];
        let block = &mut out.as_mut_slice()[p * odim..(p + 2) * odim];
        let (o0, o1) = block.split_at_mut(odim);
        let mut kk = 0;
        while kk + 4 <= k {
            let (u0, u1, u2, u3) = (x0[kk], x0[kk + 1], x0[kk + 2], x0[kk + 3]);
            let (v0, v1, v2, v3) = (x1[kk], x1[kk + 1], x1[kk + 2], x1[kk + 3]);
            let w0 = wt.row(kk);
            let w1 = wt.row(kk + 1);
            let w2 = wt.row(kk + 2);
            let w3 = wt.row(kk + 3);
            for (((((e0, e1), &a0), &a1), &a2), &a3) in
                o0.iter_mut().zip(o1.iter_mut()).zip(w0).zip(w1).zip(w2).zip(w3)
            {
                *e0 += u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3;
                *e1 += v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3;
            }
            kk += 4;
        }
        while kk < k {
            let (u, v) = (x0[kk], x1[kk]);
            for ((e0, e1), &a) in o0.iter_mut().zip(o1.iter_mut()).zip(wt.row(kk)) {
                *e0 += u * a;
                *e1 += v * a;
            }
            kk += 1;
        }
        for ((e0, e1), &b) in o0.iter_mut().zip(o1.iter_mut()).zip(bias) {
            *e0 += b;
            *e1 += b;
        }
        p += 2;
    }
    if p < npts {
        let xrow = &x.as_slice()[p * k..(p + 1) * k];
        let orow = out.row_mut(p);
        let mut kk = 0;
        while kk + 4 <= k {
            let (u0, u1, u2, u3) = (xrow[kk], xrow[kk + 1], xrow[kk + 2], xrow[kk + 3]);
            let w0 = wt.row(kk);
            let w1 = wt.row(kk + 1);
            let w2 = wt.row(kk + 2);
            let w3 = wt.row(kk + 3);
            for ((((o, &a0), &a1), &a2), &a3) in orow.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
                *o += u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3;
            }
            kk += 4;
        }
        while kk < k {
            axpy(orow, xrow[kk], wt.row(kk));
            kk += 1;
        }
        for (o, &b) in orow.iter_mut().zip(bias) {
            *o += b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform(-2.0, 2.0))
    }

    #[test]
    fn split_parts_recompose_the_weights() {
        let mut rng = Rng::seeded(7);
        let w = random_matrix(&mut rng, 5, 9);
        let s = SplitMatrix::compile(&w);
        assert_eq!((s.rows(), s.cols()), (5, 9));
        let (pos, neg) = s.row_major();
        let (w_t, abs_t) = s.mid_rad();
        for i in 0..5 {
            let mut rowabs = 0.0;
            for j in 0..9 {
                let v = pos[i * 9 + j] + neg[i * 9 + j];
                assert_eq!(v, w.get(i, j));
                assert!(pos[i * 9 + j] >= 0.0 && neg[i * 9 + j] <= 0.0);
                assert_eq!(s.pos_t[j * 5 + i], pos[i * 9 + j]);
                assert_eq!(s.neg_t[j * 5 + i], neg[i * 9 + j]);
                assert_eq!(w_t[j * 5 + i], w.get(i, j));
                assert_eq!(abs_t[j * 5 + i], w.get(i, j).abs());
                rowabs += w.get(i, j).abs();
            }
            assert_eq!(s.rowabs[i], rowabs);
        }
    }

    #[test]
    fn layouts_are_built_on_first_use_and_never_change_equality() {
        let mut rng = Rng::seeded(8);
        let w = random_matrix(&mut rng, 6, 7);
        let cold = SplitMatrix::compile(&w);
        let warm = SplitMatrix::compile(&w);
        // The Deterministic matvec runs on the compiled split alone.
        let (lo, hi) = (vec![-1.0; 7], vec![0.5; 7]);
        let (mut a_lo, mut a_hi) = (vec![0.0; 6], vec![0.0; 6]);
        warm.fused_interval_matvec(&lo, &hi, &[0.25; 6], &mut a_lo, &mut a_hi);
        assert!(warm.row_major.get().is_none() && warm.mid_rad.get().is_none());
        // Every other kernel builds its own layout.
        let (m_lo, m_hi) = (Matrix::from_fn(7, 3, |_, _| -0.5), Matrix::from_fn(7, 3, |_, _| 1.0));
        let _ = warm.fused_interval_matmul(&m_lo, &m_hi);
        assert!(warm.row_major.get().is_some() && warm.mid_rad.get().is_none());
        warm.fused_interval_matvec_outward(&lo, &hi, &[0.25; 6], &mut a_lo, &mut a_hi);
        let _ = warm.fused_interval_matmul_outward(&m_lo, &m_hi, &[1.0; 3]);
        assert!(warm.mid_rad.get().is_some());
        // A compiled and an uncompiled split compare equal, clones keep
        // equality, and different weights do not.
        assert!(cold.row_major.get().is_none() && cold.mid_rad.get().is_none());
        assert_eq!(warm, cold);
        assert_eq!(cold, warm.clone());
        let mut other = w.clone();
        other.set(2, 3, w.get(2, 3) + 1.0);
        assert_ne!(cold, SplitMatrix::compile(&other));
    }

    #[test]
    fn fused_matvec_matches_signed_scalar_loop() {
        let mut rng = Rng::seeded(11);
        let w = random_matrix(&mut rng, 6, 4);
        let s = SplitMatrix::compile(&w);
        let lo = [-1.0, 0.5, -2.0, 0.0];
        let hi = [1.0, 1.5, -1.0, 3.0];
        let bias = [0.1, -0.2, 0.0, 1.0, -1.0, 0.5];
        let mut lo_out = vec![0.0; 6];
        let mut hi_out = vec![0.0; 6];
        s.fused_interval_matvec(&lo, &hi, &bias, &mut lo_out, &mut hi_out);
        for i in 0..6 {
            // Naive reference: sign-aware accumulation in the same j order.
            let mut l = bias[i];
            let mut h = bias[i];
            for j in 0..4 {
                let wij = w.get(i, j);
                if wij >= 0.0 {
                    l += wij * lo[j];
                    h += wij * hi[j];
                } else {
                    l += wij * hi[j];
                    h += wij * lo[j];
                }
            }
            assert_eq!(lo_out[i], l, "lo row {i}");
            assert_eq!(hi_out[i], h, "hi row {i}");
            assert!(lo_out[i] <= hi_out[i]);
        }
    }

    #[test]
    fn fused_matvec_is_sound_for_interior_points() {
        let mut rng = Rng::seeded(13);
        let w = random_matrix(&mut rng, 8, 5);
        let s = SplitMatrix::compile(&w);
        let lo = vec![-1.0; 5];
        let hi = vec![2.0; 5];
        let bias = vec![0.25; 8];
        let mut lo_out = vec![0.0; 8];
        let mut hi_out = vec![0.0; 8];
        s.fused_interval_matvec(&lo, &hi, &bias, &mut lo_out, &mut hi_out);
        for _ in 0..100 {
            let x: Vec<f64> = (0..5).map(|_| rng.uniform(-1.0, 2.0)).collect();
            let y = w.matvec(&x);
            for i in 0..8 {
                let v = y[i] + bias[i];
                assert!(lo_out[i] - 1e-9 <= v && v <= hi_out[i] + 1e-9);
            }
        }
    }

    #[test]
    fn fused_matmul_reduces_to_matvec_on_single_column() {
        let mut rng = Rng::seeded(17);
        let w = random_matrix(&mut rng, 4, 6);
        let s = SplitMatrix::compile(&w);
        let lo_col: Vec<f64> = (0..6).map(|i| -1.0 - i as f64 * 0.1).collect();
        let hi_col: Vec<f64> = (0..6).map(|i| 1.0 + i as f64 * 0.2).collect();
        let lo_m = Matrix::from_vec(6, 1, lo_col.clone());
        let hi_m = Matrix::from_vec(6, 1, hi_col.clone());
        let (lo_out_m, hi_out_m) = s.fused_interval_matmul(&lo_m, &hi_m);
        let mut lo_out = vec![0.0; 4];
        let mut hi_out = vec![0.0; 4];
        s.fused_interval_matvec(&lo_col, &hi_col, &[0.0; 4], &mut lo_out, &mut hi_out);
        for i in 0..4 {
            assert!((lo_out_m.get(i, 0) - lo_out[i]).abs() < 1e-12);
            assert!((hi_out_m.get(i, 0) - hi_out[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn pack_transpose_matches_transpose() {
        let mut rng = Rng::seeded(31);
        let w = random_matrix(&mut rng, 3, 7);
        assert_eq!(pack_transpose(&w), w.transpose());
    }

    #[test]
    fn axpy_matmul_is_bit_identical_to_naive() {
        let mut rng = Rng::seeded(19);
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (7, 9, 2), (8, 8, 8), (13, 5, 11)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            assert_eq!(matmul(&a, &b), a.matmul(&b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn batch_affine_rows_are_bit_identical_to_matvec() {
        let mut rng = Rng::seeded(23);
        let w = random_matrix(&mut rng, 7, 5);
        let bias: Vec<f64> = (0..7).map(|i| i as f64 * 0.3 - 1.0).collect();
        let x = random_matrix(&mut rng, 10, 5);
        let y = batch_affine_nt(&x, &w, &bias);
        let y_packed = batch_affine_packed(&x, &pack_transpose(&w), &bias);
        assert_eq!(y, y_packed);
        for p in 0..10 {
            let mut single = w.matvec(x.row(p));
            for (v, b) in single.iter_mut().zip(bias.iter()) {
                *v += b;
            }
            assert_eq!(y.row(p), single.as_slice(), "row {p}");
        }
    }

    #[test]
    fn kernels_are_deterministic_across_calls() {
        let mut rng = Rng::seeded(29);
        let a = random_matrix(&mut rng, 9, 6);
        let b = random_matrix(&mut rng, 6, 9);
        assert_eq!(matmul(&a, &b), matmul(&a, &b));
        let s = SplitMatrix::compile(&a);
        let lo = vec![-0.5; 6];
        let hi = vec![0.5; 6];
        let bias = vec![0.0; 9];
        let mut l1 = vec![0.0; 9];
        let mut h1 = vec![0.0; 9];
        let mut l2 = vec![0.0; 9];
        let mut h2 = vec![0.0; 9];
        s.fused_interval_matvec(&lo, &hi, &bias, &mut l1, &mut h1);
        s.fused_interval_matvec(&lo, &hi, &bias, &mut l2, &mut h2);
        assert_eq!(l1, l2);
        assert_eq!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn kernel_mode_roundtrips() {
        assert_eq!(kernel_mode(), KernelMode::Deterministic);
        set_kernel_mode(KernelMode::Outward);
        assert_eq!(kernel_mode(), KernelMode::Outward);
        set_kernel_mode(KernelMode::Deterministic);
        assert_eq!(kernel_mode(), KernelMode::Deterministic);
    }

    #[test]
    fn outward_matvec_contains_deterministic_and_truth() {
        let mut rng = Rng::seeded(41);
        for (rows, cols) in [(1, 1), (3, 5), (7, 13), (16, 16), (33, 9)] {
            let w = random_matrix(&mut rng, rows, cols);
            let s = SplitMatrix::compile(&w);
            let lo: Vec<f64> = (0..cols).map(|_| rng.uniform(-3.0, 1.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.uniform(0.0, 2.0)).collect();
            let bias: Vec<f64> = (0..rows).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let (mut dl, mut dh) = (vec![0.0; rows], vec![0.0; rows]);
            let (mut ol, mut oh) = (vec![0.0; rows], vec![0.0; rows]);
            s.fused_interval_matvec(&lo, &hi, &bias, &mut dl, &mut dh);
            s.fused_interval_matvec_outward(&lo, &hi, &bias, &mut ol, &mut oh);
            for i in 0..rows {
                assert!(
                    ol[i] <= dl[i] && dh[i] <= oh[i],
                    "outward [{}, {}] does not contain deterministic [{}, {}] at row {i}",
                    ol[i],
                    oh[i],
                    dl[i],
                    dh[i]
                );
            }
            // Interior points land inside the outward enclosure too.
            for _ in 0..20 {
                let x: Vec<f64> = lo
                    .iter()
                    .zip(&hi)
                    .map(|(&l, &h)| rng.uniform(0.0, 1.0).mul_add(h - l, l))
                    .collect();
                let y = w.matvec(&x);
                for i in 0..rows {
                    let v = y[i] + bias[i];
                    assert!(ol[i] <= v && v <= oh[i], "point escaped outward enclosure");
                }
            }
        }
    }

    #[test]
    fn outward_matvec_widens_even_on_degenerate_inputs() {
        // Zero weights, zero bias: the next_down/next_up finish still has to
        // produce a genuine (one-ulp) enclosure, never an inverted interval.
        let s = SplitMatrix::compile(&Matrix::zeros(2, 3));
        let (mut lo, mut hi) = (vec![0.0; 2], vec![0.0; 2]);
        s.fused_interval_matvec_outward(&[1.0; 3], &[1.0; 3], &[0.0; 2], &mut lo, &mut hi);
        for i in 0..2 {
            assert!(lo[i] < 0.0 && 0.0 < hi[i]);
            assert!(lo[i] >= -1e-300 && hi[i] <= 1e-300);
        }
    }

    #[test]
    fn blocked_matmul_stays_within_rounding_of_deterministic() {
        let mut rng = Rng::seeded(43);
        for (m, k, n) in [(1, 1, 1), (4, 4, 4), (5, 7, 3), (13, 9, 17), (64, 64, 192)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let exact = matmul(&a, &b);
            let blocked = matmul_blocked(&a, &b);
            assert_eq!(blocked.shape(), exact.shape());
            // Per-entry magnitude budget Σ|a|·|b|: the γ_n bound both
            // summation orders obey is relative to it.
            let absa = Matrix::from_fn(m, k, |i, j| a.get(i, j).abs());
            let absb = Matrix::from_fn(k, n, |i, j| b.get(i, j).abs());
            let mag = matmul(&absa, &absb);
            let scale = outward_err_scale(k);
            for i in 0..m {
                for j in 0..n {
                    let diff = (blocked.get(i, j) - exact.get(i, j)).abs();
                    let tol = scale * (1.0 + mag.get(i, j));
                    assert!(diff <= tol, "({i},{j}) diverged by {diff} on {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn outward_batch_affine_stays_within_rounding_of_deterministic() {
        let mut rng = Rng::seeded(47);
        for (npts, k, odim) in [(1, 3, 2), (2, 4, 4), (7, 13, 5), (16, 8, 8)] {
            let w = random_matrix(&mut rng, odim, k);
            let wt = pack_transpose(&w);
            let bias: Vec<f64> = (0..odim).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x = random_matrix(&mut rng, npts, k);
            let det = batch_affine_packed(&x, &wt, &bias);
            let out = batch_affine_outward(&x, &wt, &bias);
            let absx = Matrix::from_fn(npts, k, |i, j| x.get(i, j).abs());
            let abswt = Matrix::from_fn(k, odim, |i, j| wt.get(i, j).abs());
            let absbias: Vec<f64> = bias.iter().map(|b| b.abs()).collect();
            let mag = batch_affine_packed(&absx, &abswt, &absbias);
            let scale = outward_err_scale(k);
            for p in 0..npts {
                for j in 0..odim {
                    let diff = (out.get(p, j) - det.get(p, j)).abs();
                    let tol = scale * (1.0 + mag.get(p, j));
                    assert!(diff <= tol, "row {p} col {j}: {diff}");
                }
            }
        }
    }

    #[test]
    fn outward_interval_matmul_slack_covers_the_deterministic_gap() {
        let mut rng = Rng::seeded(53);
        for (rows, cols, d) in [(3, 4, 2), (8, 8, 8), (5, 11, 7)] {
            let w = random_matrix(&mut rng, rows, cols);
            let s = SplitMatrix::compile(&w);
            let lo_in = random_matrix(&mut rng, cols, d);
            let hi_in = Matrix::from_fn(cols, d, |i, j| lo_in.get(i, j) + rng.uniform(0.0, 1.0));
            let xmax: Vec<f64> = (0..d).map(|_| rng.uniform(0.5, 2.0)).collect();
            let (det_lo, det_hi) = s.fused_interval_matmul(&lo_in, &hi_in);
            let (out_lo, out_hi, slack) = s.fused_interval_matmul_outward(&lo_in, &hi_in, &xmax);
            for (i, &si) in slack.iter().enumerate() {
                assert!(si >= 0.0);
                // Worst-case value gap between the two coefficient rows over
                // any |x_d| ≤ xmax_d must be covered by the slack.
                let mut gap_lo = 0.0;
                let mut gap_hi = 0.0;
                for (j, &xm) in xmax.iter().enumerate() {
                    gap_lo += (out_lo.get(i, j) - det_lo.get(i, j)).abs() * xm;
                    gap_hi += (out_hi.get(i, j) - det_hi.get(i, j)).abs() * xm;
                }
                assert!(gap_lo <= si, "row {i}: lo gap {gap_lo} > slack {si}");
                assert!(gap_hi <= si, "row {i}: hi gap {gap_hi} > slack {si}");
            }
        }
    }
}
