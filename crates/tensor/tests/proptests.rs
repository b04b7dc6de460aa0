//! Property-based tests for the matrix algebra and autograd invariants.

use calibre_tensor::backend::{Backend, Blocked, Scalar};
use calibre_tensor::gradcheck::check_gradient;
use calibre_tensor::nn::{gradients, Activation, Binding, Mlp, Module};
use calibre_tensor::{Graph, Matrix, Workspace};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy producing a matrix with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// A seeded `rows × cols` matrix where about a quarter of the entries are
/// zero and every third row keeps only its first entry: the mostly-zero rows
/// of post-ReLU activations and their gradients.
fn sparse_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::Rng;
    let mut r = calibre_tensor::rng::seeded(seed);
    let dense = calibre_tensor::rng::normal_matrix(&mut r, rows, cols, 1.0);
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let keep = r.gen_range(0u8..4) != 0 && (i % 3 != 0 || j == 0);
            if keep {
                out.set(i, j, dense.get(i, j));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(3, 5), b in matrix(4, 5)) {
        // (A Bᵀ)ᵀ == B Aᵀ
        let lhs = a.matmul_transpose(&b).transpose();
        let rhs = b.matmul_transpose(&a);
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_preserves_frobenius_norm(a in matrix(4, 6)) {
        prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(5, 7)) {
        let s = a.row_softmax();
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in matrix(3, 5), shift in -10.0f32..10.0) {
        let s1 = a.row_softmax();
        let s2 = a.map(|v| v + shift).row_softmax();
        for (x, y) in s1.iter().zip(s2.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn l2_normalized_rows_have_unit_norm_or_zero(a in matrix(6, 4)) {
        let n = a.row_l2_normalized();
        for (r, norm) in n.row_norms().iter().enumerate() {
            let orig: f32 = a.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if orig > 1e-6 {
                prop_assert!((norm - 1.0).abs() < 1e-4, "row {r} norm {norm}");
            }
        }
    }

    #[test]
    fn gather_rows_preserves_row_content(a in matrix(6, 3), idx in prop::collection::vec(0usize..6, 1..10)) {
        let g = a.gather_rows(&idx);
        for (i, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(i), a.row(src));
        }
    }

    #[test]
    fn concat_then_split_roundtrips(a in matrix(3, 4), b in matrix(2, 4)) {
        let cat = a.concat_rows(&b);
        prop_assert_eq!(cat.rows(), 5);
        let back_a = cat.gather_rows(&[0, 1, 2]);
        let back_b = cat.gather_rows(&[3, 4]);
        prop_assert_eq!(back_a, a);
        prop_assert_eq!(back_b, b);
    }

    #[test]
    fn flat_roundtrip_is_identity(seed in 0u64..1000) {
        let mut r = calibre_tensor::rng::seeded(seed);
        let mlp = Mlp::new(&[4, 6, 2], Activation::Relu, &mut r);
        let mut clone = Mlp::new(&[4, 6, 2], Activation::Relu, &mut r);
        clone.load_flat(&mlp.to_flat());
        prop_assert_eq!(clone.to_flat(), mlp.to_flat());
    }

    #[test]
    fn autograd_linear_map_gradient_is_exact(x in matrix(2, 3), w in matrix(3, 2)) {
        // For f = sum(x W), df/dx = 1·Wᵀ exactly (no nonlinearity).
        let mut g = Graph::new();
        let xn = g.leaf(x);
        let wn = g.constant(w.clone());
        let y = g.matmul(xn, wn);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grad = g.grad(xn).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                let expected: f32 = w.row(c).iter().sum();
                prop_assert!((grad.get(r, c) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(x in matrix(4, 3), t0 in 0usize..3, t1 in 0usize..3, t2 in 0usize..3, t3 in 0usize..3) {
        let mut g = Graph::new();
        let xn = g.constant(x);
        let loss = g.cross_entropy(xn, &[t0, t1, t2, t3]);
        prop_assert!(g.value(loss).get(0, 0) >= 0.0);
    }

    #[test]
    fn composite_gradcheck_on_random_mlp_loss(x in matrix(3, 4)) {
        // Shift inputs into ReLU's strictly-positive region: finite
        // differences are invalid at the kink (and the all-zero matrix also
        // degenerates row normalization).
        let x = x.map(|v| v + 3.5);
        let report = check_gradient(&x, 1e-2, |g, xn| {
            let h = g.relu(xn);
            let n = g.row_l2_normalize(h);
            let nt = g.transpose(n);
            let sims = g.matmul(n, nt);
            let masked = g.mask_diagonal(sims, -1e9);
            g.cross_entropy(masked, &[1, 2, 0])
        });
        prop_assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn binding_gradients_match_parameter_count(seed in 0u64..100) {
        let mut r = calibre_tensor::rng::seeded(seed);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut r);
        let x = calibre_tensor::rng::normal_matrix(&mut r, 4, 3, 1.0);
        let mut g = Graph::new();
        let xn = g.constant(x);
        let mut binding = Binding::new();
        let out = mlp.forward(&mut g, xn, &mut binding);
        let loss = g.mean_all(out);
        g.backward(loss);
        let grads = gradients(&g, &binding);
        prop_assert_eq!(grads.len(), mlp.parameters().len());
        for (gr, p) in grads.iter().zip(mlp.parameters()) {
            prop_assert_eq!(gr.shape(), p.shape());
            prop_assert!(gr.all_finite());
        }
    }

    #[test]
    fn scalar_and_blocked_matmul_agree(a in matrix(33, 48), b in matrix(48, 21)) {
        // Shapes deliberately larger than (and not a multiple of) the tile
        // size, so the Blocked kernel exercises both full and ragged tiles.
        let mut s = Matrix::zeros(33, 21);
        let mut bl = Matrix::zeros(33, 21);
        Scalar.matmul(&a, &b, &mut s);
        Blocked.matmul(&a, &b, &mut bl);
        for (x, y) in s.iter().zip(bl.iter()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "matmul: {x} vs {y}");
        }
    }

    #[test]
    fn scalar_and_blocked_transposed_matmuls_agree(
        a in matrix(19, 40),
        b in matrix(23, 40),
        c in matrix(19, 23),
    ) {
        // A·Bᵀ (dA of matmul backward) through both backends.
        let mut s_nt = Matrix::zeros(19, 23);
        let mut b_nt = Matrix::zeros(19, 23);
        Scalar.matmul_nt(&a, &b, &mut s_nt);
        Blocked.matmul_nt(&a, &b, &mut b_nt);
        for (x, y) in s_nt.iter().zip(b_nt.iter()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "nt: {x} vs {y}");
        }
        // Aᵀ·C (dB of matmul backward) through both backends.
        let mut s_tn = Matrix::zeros(40, 23);
        let mut b_tn = Matrix::zeros(40, 23);
        Scalar.matmul_tn(&a, &c, &mut s_tn);
        Blocked.matmul_tn(&a, &c, &mut b_tn);
        for (x, y) in s_tn.iter().zip(b_tn.iter()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "tn: {x} vs {y}");
        }
    }

    #[test]
    fn scalar_matmul_nt_is_bitwise_matmul_transpose(
        m in 1usize..14,
        k in 1usize..12,
        nb in 1usize..21,
        seed in 0u64..10_000,
    ) {
        // Shapes straddle the 4-row × 8-column register tile (m and nb of 1,
        // ragged remainders, k of 1); rows are often mostly zeros.
        let a = sparse_matrix(m, k, seed);
        let b = sparse_matrix(nb, k, seed + 1);
        let mut out = Matrix::zeros(a.rows(), b.rows());
        Scalar.matmul_nt(&a, &b, &mut out);
        let want = a.matmul_transpose(&b);
        for (x, y) in out.iter().zip(want.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    #[test]
    fn scalar_and_blocked_backward_gradients_agree(x in matrix(6, 16)) {
        // The same contrastive-shaped graph built on a Scalar workspace and
        // a Blocked workspace must produce matching gradients for the input
        // leaf and every parameter.
        let grad_under = |backend: Arc<dyn Backend>| {
            let mut r = calibre_tensor::rng::seeded(11);
            let mlp = Mlp::new(&[16, 24, 8], Activation::Relu, &mut r);
            let mut g = Graph::with_workspace(Workspace::with_backend(backend));
            let xn = g.leaf_from(&x);
            let mut binding = Binding::new();
            let out = mlp.forward(&mut g, xn, &mut binding);
            let n = g.row_l2_normalize(out);
            let nt = g.transpose(n);
            let sims = g.matmul(n, nt);
            let masked = g.mask_diagonal(sims, -1e9);
            let loss = g.cross_entropy(masked, &[1, 2, 3, 4, 5, 0]);
            g.backward(loss);
            let input_grad = g.grad(xn).unwrap().clone();
            (input_grad, gradients(&g, &binding))
        };
        let (sg, sp) = grad_under(Arc::new(Scalar));
        let (bg, bp) = grad_under(Arc::new(Blocked));
        for (x1, y1) in sg.iter().zip(bg.iter()) {
            prop_assert!((x1 - y1).abs() <= 1e-4 * (1.0 + x1.abs()), "input grad: {x1} vs {y1}");
        }
        prop_assert_eq!(sp.len(), bp.len());
        for (pa, pb) in sp.iter().zip(bp.iter()) {
            for (x1, y1) in pa.iter().zip(pb.iter()) {
                prop_assert!((x1 - y1).abs() <= 1e-4 * (1.0 + x1.abs()), "param grad: {x1} vs {y1}");
            }
        }
    }

    #[test]
    fn group_mean_rows_average_of_members(data in matrix(8, 2), assign in prop::collection::vec(0usize..3, 8)) {
        let mut g = Graph::new();
        let xn = g.constant(data.clone());
        let c = g.group_mean_rows(xn, &assign, 3);
        for k in 0..3 {
            let members: Vec<usize> = (0..8).filter(|&i| assign[i] == k).collect();
            if members.is_empty() {
                prop_assert!(g.value(c).row(k).iter().all(|&v| v == 0.0));
            } else {
                for col in 0..2 {
                    let avg: f32 = members.iter().map(|&i| data.get(i, col)).sum::<f32>() / members.len() as f32;
                    prop_assert!((g.value(c).get(k, col) - avg).abs() < 1e-4);
                }
            }
        }
    }
}
