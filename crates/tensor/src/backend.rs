//! Pluggable execution backends for the dense kernels underneath the tape.
//!
//! Every [`crate::Graph`] op that does real arithmetic (matmul and its two
//! transposed variants, axpy, scaling, reductions) dispatches through a
//! [`Backend`] carried by the graph's [`crate::pool::Workspace`]. Two
//! implementations ship today:
//!
//! - [`Scalar`] — the reference backend. Each output element is computed
//!   with the same f32 operations, in the same order, as the original
//!   `Matrix` kernels, so training under `Scalar` is bit-identical to the
//!   pre-backend code (pinned by the golden-checksum tests). The loops
//!   themselves may differ: `matmul_nt` runs register tiles of independent
//!   per-element accumulators instead of one dot product at a time.
//! - [`Blocked`] — a cache-tiled backend that unrolls the reduction
//!   dimension of `matmul` four-wide (and splits rows across threads for
//!   very large products). It may reorder floating-point sums, so results
//!   agree with `Scalar` to ~1e-4 relative, not bitwise. Its `matmul_nt` is
//!   the shared tiled kernel.
//!
//! A process-global default (used by `Graph::new`) starts as `Scalar` and
//! can be switched once at startup — the bench binaries expose this as
//! `--backend scalar|blocked`. Code that needs a specific backend regardless
//! of the global (tests, comparisons) builds an explicit
//! [`crate::pool::Workspace`] instead.

use crate::Matrix;
use std::sync::{Arc, RwLock};

/// Dense kernels the autodiff tape dispatches through.
///
/// `out` buffers follow the convention of the original `Matrix` kernels:
/// accumulating kernels (`matmul`, `matmul_tn`) require a zeroed `out`,
/// fully-overwriting kernels (`matmul_nt`, `row_sum_sq`) accept stale
/// contents. Shape checking is the caller's job (the graph ops assert before
/// dispatching), so implementations may assume conforming shapes.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Short stable identifier (`"scalar"`, `"blocked"`).
    fn name(&self) -> &'static str;

    /// `out += a · b` with `out` pre-zeroed: the forward matmul.
    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out = a · bᵀ` (fully overwrites `out`): the `dA` of matmul backward.
    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out += aᵀ · b` with `out` pre-zeroed: the `dB` of matmul backward,
    /// computed without materializing the transpose.
    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// Elementwise `out += a`.
    fn add_assign(&self, out: &mut Matrix, a: &Matrix) {
        self.add_scaled(out, a, 1.0);
    }

    /// Elementwise axpy `out += a * s` — the core of gradient accumulation,
    /// every optimizer and the server aggregation.
    fn add_scaled(&self, out: &mut Matrix, a: &Matrix, s: f32) {
        for (o, &v) in out.iter_mut().zip(a.iter()) {
            *o += v * s;
        }
    }

    /// Elementwise `out *= s`.
    fn scale(&self, out: &mut Matrix, s: f32) {
        for o in out.iter_mut() {
            *o *= s;
        }
    }

    /// Sum of all elements.
    fn sum(&self, a: &Matrix) -> f32 {
        a.iter().sum()
    }

    /// Per-row sum of squares written into a pre-shaped `(rows, 1)` column.
    fn row_sum_sq(&self, a: &Matrix, out: &mut Matrix) {
        for r in 0..a.rows() {
            let s: f32 = a.row(r).iter().map(|v| v * v).sum();
            out.set(r, 0, s);
        }
    }

    /// Squared Euclidean distance between two equal-length slices — the
    /// kmeans assignment kernel.
    fn squared_distance(&self, a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum()
    }

    /// Slice-level axpy `out += a * s` — the kmeans centroid-update kernel.
    fn axpy(&self, out: &mut [f32], a: &[f32], s: f32) {
        for (o, &v) in out.iter_mut().zip(a.iter()) {
            *o += v * s;
        }
    }
}

/// Reference backend: every element gets the same f32 operations in the same
/// order as the original `Matrix` kernels, and therefore training is
/// bit-identical to pre-backend training.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scalar;

impl Backend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `b` and `out`; skipping zero a_ik terms is exact
        // (x + 0·b == x in f32 for finite b).
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * bv;
                }
            }
        }
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        tiled_matmul_nt(a, b, out);
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // Per out element this accumulates a[k][i]·b[k][j] in increasing-k
        // order with the same zero skip as `a.transpose().matmul(b)`, so the
        // result is bit-identical to the transpose-then-matmul path while
        // touching `a` row-major.
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += aki * bv;
                }
            }
        }
    }
}

/// Output rows per register tile of [`tiled_matmul_nt`].
const NT_TILE_ROWS: usize = 4;
/// Output columns per register tile of [`tiled_matmul_nt`].
const NT_TILE_COLS: usize = 8;

/// One reference dot product: `acc = 0; acc += x·y` in increasing `k`.
fn dot_in_order(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (&xv, &yv) in x.iter().zip(y.iter()) {
        acc += xv * yv;
    }
    acc
}

/// `out = a · bᵀ`, register-tiled and bit-identical to
/// `Matrix::matmul_transpose`.
///
/// The rows of `b` that full tiles read are copied once into a transposed
/// `k × cols` panel so the eight columns of a tile are contiguous. Each tile
/// then holds 4 × 8 independent accumulators in fixed-width arrays the
/// compiler keeps in vector registers. Every output element still starts at
/// `0.0` and adds `a[i][k] · b[j][k]` (a separate multiply and add, no zero
/// skip) in increasing `k`, so it sees exactly the f32 operations of the
/// one-dot-per-element reference; only the interleaving across elements
/// changes. Ragged edges run the reference dot directly.
fn tiled_matmul_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, inner, nb) = (a.rows(), a.cols(), b.rows());
    let full_rows = m - m % NT_TILE_ROWS;
    let full_cols = if full_rows == 0 {
        0
    } else {
        nb - nb % NT_TILE_COLS
    };
    let mut panel = vec![0.0f32; inner * full_cols];
    for j in 0..full_cols {
        for (k, &v) in b.row(j)[..inner].iter().enumerate() {
            panel[k * full_cols + j] = v;
        }
    }
    for i in (0..full_rows).step_by(NT_TILE_ROWS) {
        let a_rows: [&[f32]; NT_TILE_ROWS] = std::array::from_fn(|r| &a.row(i + r)[..inner]);
        for j in (0..full_cols).step_by(NT_TILE_COLS) {
            let mut acc = [[0.0f32; NT_TILE_COLS]; NT_TILE_ROWS];
            for k in 0..inner {
                let mut bv = [0.0f32; NT_TILE_COLS];
                let at = k * full_cols + j;
                bv.copy_from_slice(&panel[at..at + NT_TILE_COLS]);
                for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
                    let av = a_row[k];
                    for (o, &bj) in acc_row.iter_mut().zip(bv.iter()) {
                        *o += av * bj;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out.row_mut(i + r)[j..j + NT_TILE_COLS].copy_from_slice(acc_row);
            }
        }
        for (r, a_row) in a_rows.iter().enumerate() {
            for j in full_cols..nb {
                out.set(i + r, j, dot_in_order(a_row, b.row(j)));
            }
        }
    }
    for i in full_rows..m {
        for j in 0..nb {
            out.set(i, j, dot_in_order(a.row(i), b.row(j)));
        }
    }
}

/// Products with at least this many multiply-adds split their rows across
/// threads. High enough that the per-step matmuls of the smoke-scale
/// federated runs (which already parallelize across clients) never pay
/// thread-spawn overhead.
const PAR_MIN_FLOPS: usize = 1 << 22;

/// Cache-tiled backend: the reduction dimension of `matmul` is processed
/// four-wide so each pass over the output row fuses four axpys (4× less
/// traffic over `out`, more ILP), and very large products split rows across
/// threads. `matmul_nt` shares [`Scalar`]'s register-tiled kernel.
///
/// Summation order of `matmul` differs from [`Scalar`] (four partial
/// products are added before accumulating), so results match to ~1e-4, not
/// bitwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

/// One output row of `a · b`: `out_row += Σ_k a_row[k] · b[k][·]`, four
/// reduction terms fused per pass so `out_row` is written once per four
/// axpys instead of once per term. Quads whose four coefficients are all
/// zero (common after ReLU) are skipped exactly.
fn blocked_row_kernel(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    let n = out_row.len();
    let mut k = 0;
    while k + 4 <= a_row.len() {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
            let b0 = &b.row(k)[..n];
            let b1 = &b.row(k + 1)[..n];
            let b2 = &b.row(k + 2)[..n];
            let b3 = &b.row(k + 3)[..n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        }
        k += 4;
    }
    while k < a_row.len() {
        let a_ik = a_row[k];
        if a_ik != 0.0 {
            for (o, &bv) in out_row.iter_mut().zip(b.row(k).iter()) {
                *o += a_ik * bv;
            }
        }
        k += 1;
    }
}

/// Serial `out += a · b` over a contiguous row range of `out`, one
/// [`blocked_row_kernel`] pass per row.
fn blocked_matmul_rows(a: &Matrix, b: &Matrix, row0: usize, rows: &mut [f32], cols: usize) {
    for (local, out_row) in rows.chunks_mut(cols.max(1)).enumerate() {
        blocked_row_kernel(a.row(row0 + local), b, out_row);
    }
}

/// One output row via the zero-skipping axpy sweep (same algorithm as
/// [`Scalar`]) — the fastest shape when the coefficient row is mostly zeros.
fn scalar_row_kernel(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    for (k, &a_ik) in a_row.iter().enumerate() {
        if a_ik == 0.0 {
            continue;
        }
        for (o, &bv) in out_row.iter_mut().zip(b.row(k).iter()) {
            *o += a_ik * bv;
        }
    }
}

/// Whether `a` is sparse enough (≥25% zeros in a bounded prefix sample) that
/// per-term zero skipping beats register blocking. ReLU activation batches
/// routinely clear half their entries; data batches are dense.
fn operand_is_sparse(a: &Matrix) -> bool {
    let sample = &a.as_slice()[..a.as_slice().len().min(256)];
    let zeros = sample.iter().filter(|&&v| v == 0.0).count();
    zeros * 4 >= sample.len()
}

/// Splits the rows of `out` into contiguous chunks and runs `kernel` on each
/// chunk from its own scoped thread. `kernel` receives the starting row and
/// the chunk's backing slice.
fn par_over_rows<F>(out: &mut Matrix, threads: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.rows();
    let cols = out.cols();
    // Kernels are per-row, so row partitioning never changes per-row
    // summation order.
    let rows_per = rows.div_ceil(threads.max(1)).max(1);
    let data = out.as_mut_slice();
    std::thread::scope(|s| {
        for (idx, chunk) in data.chunks_mut(rows_per * cols).enumerate() {
            let kernel = &kernel;
            s.spawn(move || kernel(idx * rows_per, chunk));
        }
    });
}

fn thread_budget() -> usize {
    // available_parallelism re-reads cgroup quota files on Linux — far too
    // expensive for a per-matmul query, so resolve it once per process.
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let flops = a.rows() * a.cols() * b.cols();
        let threads = thread_budget();
        let cols = out.cols();
        let sparse = operand_is_sparse(a);
        if flops >= PAR_MIN_FLOPS && threads > 1 && a.rows() > 1 {
            par_over_rows(out, threads, |row0, chunk| {
                if sparse {
                    for (local, out_row) in chunk.chunks_mut(cols).enumerate() {
                        scalar_row_kernel(a.row(row0 + local), b, out_row);
                    }
                } else {
                    blocked_matmul_rows(a, b, row0, chunk, cols);
                }
            });
        } else if sparse {
            for i in 0..a.rows() {
                scalar_row_kernel(a.row(i), b, out.row_mut(i));
            }
        } else {
            blocked_matmul_rows(a, b, 0, out.as_mut_slice(), cols);
        }
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // The register-tiled kernel is bit-exact and faster at the training
        // shapes than a reordered-sum variant, so both backends share it.
        tiled_matmul_nt(a, b, out);
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // k-outer keeps both inputs row-major; per out element the
        // accumulation is a plain axpy sweep.
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += aki * bv;
                }
            }
        }
    }
}

static GLOBAL_BACKEND: RwLock<Option<Arc<dyn Backend>>> = RwLock::new(None);

/// The process-global default backend used by `Graph::new` (and therefore by
/// every entry point that does not build an explicit workspace). [`Scalar`]
/// until [`set_global_backend`] is called.
pub fn global_backend() -> Arc<dyn Backend> {
    GLOBAL_BACKEND
        .read()
        // analyze:allow(no-expect) -- a poisoned backend lock means a
        // panic mid-registration; propagating it is the only sane option.
        .expect("backend lock poisoned")
        .clone()
        .unwrap_or_else(|| Arc::new(Scalar))
}

/// Replaces the process-global default backend. Intended to be called once
/// at startup (the bench binaries' `--backend` flag); switching mid-run only
/// affects graphs created afterwards.
pub fn set_global_backend(backend: Arc<dyn Backend>) {
    // analyze:allow(no-expect) -- same poisoning policy as global_backend.
    *GLOBAL_BACKEND.write().expect("backend lock poisoned") = Some(backend);
}

/// Resolves a backend by its [`Backend::name`]; `None` for unknown names.
pub fn backend_by_name(name: &str) -> Option<Arc<dyn Backend>> {
    match name {
        "scalar" => Some(Arc::new(Scalar)),
        "blocked" => Some(Arc::new(Blocked)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn check_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.iter().zip(b.iter()) {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn scalar_matmul_is_bitwise_identical_to_matrix_matmul() {
        let mut r = rng::seeded(5);
        let a = rng::normal_matrix(&mut r, 7, 13, 1.0);
        let b = rng::normal_matrix(&mut r, 13, 9, 1.0);
        let mut out = Matrix::zeros(7, 9);
        Scalar.matmul(&a, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn scalar_tn_matches_transpose_then_matmul_bitwise() {
        let mut r = rng::seeded(6);
        let a = rng::normal_matrix(&mut r, 11, 5, 1.0);
        let g = rng::normal_matrix(&mut r, 11, 8, 1.0);
        let mut out = Matrix::zeros(5, 8);
        Scalar.matmul_tn(&a, &g, &mut out);
        assert_eq!(out, a.transpose().matmul(&g));
    }

    #[test]
    fn scalar_nt_matches_matmul_transpose_bitwise() {
        // 6×4 is all ragged edge; 5×9 with k = 1 is one tile plus a ragged
        // row and column; 33×64 has eight full row tiles, eight full column
        // tiles and one ragged row.
        let mut r = rng::seeded(7);
        for &(m, k, nb) in &[(6usize, 10usize, 4usize), (5, 1, 9), (33, 96, 64)] {
            let a = rng::normal_matrix(&mut r, m, k, 1.0);
            let b = rng::normal_matrix(&mut r, nb, k, 1.0);
            let mut out = Matrix::zeros(m, nb);
            Scalar.matmul_nt(&a, &b, &mut out);
            let want = a.matmul_transpose(&b);
            let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "{m}×{k} · ({nb}×{k})ᵀ");
        }
    }

    #[test]
    fn blocked_agrees_with_scalar_within_tolerance() {
        let mut r = rng::seeded(8);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (32, 65, 33),
            (17, 128, 64),
        ] {
            let a = rng::normal_matrix(&mut r, m, k, 1.0);
            let b = rng::normal_matrix(&mut r, k, n, 1.0);
            let mut s = Matrix::zeros(m, n);
            let mut bl = Matrix::zeros(m, n);
            Scalar.matmul(&a, &b, &mut s);
            Blocked.matmul(&a, &b, &mut bl);
            check_close(&s, &bl, 1e-4);

            let gt = rng::normal_matrix(&mut r, m, n, 1.0);
            let mut s_tn = Matrix::zeros(k, n);
            let mut b_tn = Matrix::zeros(k, n);
            Scalar.matmul_tn(&a, &gt, &mut s_tn);
            Blocked.matmul_tn(&a, &gt, &mut b_tn);
            check_close(&s_tn, &b_tn, 1e-4);

            // matmul_nt(gt, b) = gt · bᵀ: (m,n)·(n,k) → (m,k).
            let mut s_nt = Matrix::zeros(m, k);
            let mut b_nt = Matrix::zeros(m, k);
            Scalar.matmul_nt(&gt, &b, &mut s_nt);
            Blocked.matmul_nt(&gt, &b, &mut b_nt);
            check_close(&s_nt, &b_nt, 1e-4);
        }
    }

    #[test]
    fn blocked_handles_zero_heavy_inputs() {
        // The four-wide zero skip must not drop partial contributions.
        let mut a = Matrix::zeros(3, 6);
        a.set(0, 1, 2.0);
        a.set(2, 5, -1.5);
        let mut r = rng::seeded(9);
        let b = rng::normal_matrix(&mut r, 6, 4, 1.0);
        let mut s = Matrix::zeros(3, 4);
        let mut bl = Matrix::zeros(3, 4);
        Scalar.matmul(&a, &b, &mut s);
        Blocked.matmul(&a, &b, &mut bl);
        check_close(&s, &bl, 1e-6);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to cross PAR_MIN_FLOPS: 256·256·128 = 8.4M flops.
        let mut r = rng::seeded(10);
        let a = rng::normal_matrix(&mut r, 256, 256, 1.0);
        let b = rng::normal_matrix(&mut r, 256, 128, 1.0);
        let mut serial = Matrix::zeros(256, 128);
        let cols = serial.cols();
        blocked_matmul_rows(&a, &b, 0, serial.as_mut_slice(), cols);
        let mut par = Matrix::zeros(256, 128);
        Blocked.matmul(&a, &b, &mut par);
        assert_eq!(serial, par, "row partitioning must not change results");
    }

    #[test]
    fn global_backend_defaults_to_scalar_and_resolves_names() {
        assert_eq!(global_backend().name(), "scalar");
        assert_eq!(backend_by_name("blocked").unwrap().name(), "blocked");
        assert!(backend_by_name("gpu").is_none());
    }
}
