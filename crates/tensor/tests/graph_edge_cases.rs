//! Edge-case tests for the autograd tape: shape-mismatch panics, degenerate
//! inputs, and ops whose unit coverage in the module tests is indirect.

use calibre_tensor::nn::{gradients, Activation, Binding, Mlp};
use calibre_tensor::{rng, Graph, Matrix};

#[test]
#[should_panic(expected = "matmul shape mismatch")]
fn matmul_rejects_inner_dimension_mismatch() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    let b = g.constant(Matrix::zeros(2, 3));
    g.matmul(a, b);
}

#[test]
#[should_panic(expected = "elementwise op shape mismatch")]
fn add_rejects_shape_mismatch() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    let b = g.constant(Matrix::zeros(3, 2));
    g.add(a, b);
}

#[test]
#[should_panic(expected = "square")]
fn mask_diagonal_rejects_rectangles() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    g.mask_diagonal(a, 0.0);
}

#[test]
#[should_panic(expected = "reshape cannot change element count")]
fn reshape_rejects_size_change() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    g.reshape(a, 2, 4);
}

#[test]
fn reshape_roundtrip_preserves_gradients() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
    let flat = g.reshape(x, 1, 4);
    let back = g.reshape(flat, 2, 2);
    let sq = g.mul(back, back);
    let loss = g.sum_all(sq);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert_eq!(grad.row(0), &[2.0, 4.0]);
    assert_eq!(grad.row(1), &[6.0, 8.0]);
}

#[test]
fn exp_log_inverse_roundtrip() {
    let mut g = Graph::new();
    let x = g.constant(Matrix::from_rows(&[vec![0.5, 1.5, 2.5]]));
    let e = g.exp(x);
    let l = g.log(e);
    for (a, b) in g.value(x).iter().zip(g.value(l).iter()) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn log_clamps_nonpositive_inputs() {
    let mut g = Graph::new();
    let x = g.constant(Matrix::from_rows(&[vec![0.0, -1.0]]));
    let l = g.log(x);
    assert!(
        g.value(l).all_finite(),
        "log of clamped input must be finite"
    );
}

#[test]
fn div_by_small_values_is_finite_forward() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::from_rows(&[vec![1.0]]));
    let b = g.constant(Matrix::from_rows(&[vec![1e-6]]));
    let d = g.div(a, b);
    assert!(g.value(d).all_finite());
    assert!((g.value(d).get(0, 0) - 1e6).abs() < 1.0);
}

#[test]
fn scale_by_zero_kills_gradient_but_not_structure() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![3.0, 4.0]]));
    let y = g.scale(x, 0.0);
    let loss = g.sum_all(y);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert!(grad.iter().all(|&v| v == 0.0));
    assert_eq!(grad.shape(), (1, 2));
}

#[test]
fn chained_detach_still_forwards_values() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![2.0]]));
    let d1 = g.detach(x);
    let d2 = g.detach(d1);
    assert_eq!(g.value(d2).get(0, 0), 2.0);
    let loss = g.sum_all(d2);
    g.backward(loss);
    assert!(g.grad(x).is_none());
}

#[test]
fn gather_rows_with_repeats_accumulates_gradient() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
    let gathered = g.gather_rows(x, &[0, 0, 0, 1]);
    let loss = g.sum_all(gathered);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert_eq!(grad.col(0), vec![3.0, 1.0]);
}

#[test]
fn cross_entropy_of_uniform_logits_is_log_k() {
    let mut g = Graph::new();
    let logits = g.constant(Matrix::zeros(4, 10));
    let loss = g.cross_entropy(logits, &[0, 3, 5, 9]);
    let expected = (10.0f32).ln();
    assert!((g.value(loss).get(0, 0) - expected).abs() < 1e-5);
}

#[test]
fn graph_len_tracks_node_insertion() {
    let mut g = Graph::new();
    assert!(g.is_empty());
    let a = g.constant(Matrix::zeros(1, 1));
    let b = g.leaf(Matrix::zeros(1, 1));
    let _ = g.add(a, b);
    assert_eq!(g.len(), 3);
}

#[test]
fn rowwise_dot_of_orthogonal_rows_is_zero() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]));
    let b = g.constant(Matrix::from_rows(&[vec![0.0, 5.0], vec![3.0, 0.0]]));
    let d = g.rowwise_dot(a, b);
    assert_eq!(g.value(d).col(0), vec![0.0, 0.0]);
}

#[test]
fn group_mean_rows_single_group_equals_mean_rows() {
    let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 20.0]]);
    let mut g = Graph::new();
    let x = g.constant(m.clone());
    let c = g.group_mean_rows(x, &[0, 0, 0], 1);
    assert_eq!(g.value(c).row(0), m.mean_rows().row(0));
}

#[test]
fn backward_through_deep_chain_stays_finite() {
    // A 40-op chain of alternating tanh/scale must not under/overflow.
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![0.7, -0.3, 1.1]]));
    let mut h = x;
    for i in 0..20 {
        h = g.tanh(h);
        h = g.scale(h, if i % 2 == 0 { 1.5 } else { 0.7 });
    }
    let loss = g.mean_all(h);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert!(grad.all_finite());
}

#[test]
fn constant_input_skips_its_gradient_without_changing_parameter_grads() {
    // An MLP encoder feeding an NT-Xent-shaped loss, built once with the
    // input batch as a constant and once as a leaf. Backward may skip the
    // constant's gradient, but every parameter gradient must be bit-equal.
    let mut r = rng::seeded(21);
    let mlp = Mlp::new(&[12, 20, 8], Activation::Relu, &mut r);
    let x = rng::normal_matrix(&mut r, 8, 12, 1.0);
    let targets = [4, 5, 6, 7, 0, 1, 2, 3];
    let run = |as_leaf: bool| {
        let mut g = Graph::new();
        let xn = if as_leaf {
            g.leaf(x.clone())
        } else {
            g.constant(x.clone())
        };
        let mut binding = Binding::new();
        let z = mlp.forward(&mut g, xn, &mut binding);
        let h = g.row_l2_normalize(z);
        let ht = g.transpose(h);
        let sims = g.matmul(h, ht);
        let scaled = g.scale(sims, 1.0 / 0.5);
        let masked = g.mask_diagonal(scaled, -1e9);
        let loss = g.cross_entropy(masked, &targets);
        g.backward(loss);
        let input_grad = g.grad(xn).cloned();
        (input_grad, gradients(&g, &binding))
    };
    let (const_input_grad, const_grads) = run(false);
    let (leaf_input_grad, leaf_grads) = run(true);
    assert!(
        const_input_grad.is_none(),
        "a constant input has no gradient"
    );
    assert!(leaf_input_grad.is_some(), "a leaf input gets its gradient");
    assert_eq!(const_grads.len(), leaf_grads.len());
    for (c, l) in const_grads.iter().zip(&leaf_grads) {
        assert_eq!(c.shape(), l.shape());
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(c), bits(l));
    }
}
