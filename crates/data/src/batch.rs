//! Mini-batch index iteration.
//!
//! Every local-update loop in the workspace walks its samples in shuffled
//! mini-batches; this module centralizes that logic so epoch semantics are
//! identical across all baselines and Calibre itself. The SSL loops also
//! render every batch's two views up front with [`render_local_views`].

use crate::{AugmentConfig, Sample, SynthVision};
use calibre_tensor::rng::permutation;
use calibre_tensor::Matrix;
use rand::Rng;

/// Yields shuffled index batches covering `0..n` once per epoch.
///
/// The final batch of an epoch may be smaller than `batch_size`; batches of
/// size 1 are skipped when `drop_singletons` is set (contrastive losses need
/// at least two samples).
///
/// # Examples
///
/// ```
/// use calibre_data::batch::batches;
/// let mut rng = calibre_tensor::rng::seeded(0);
/// let b = batches(10, 4, false, &mut rng);
/// assert_eq!(b.iter().map(Vec::len).sum::<usize>(), 10);
/// assert_eq!(b.len(), 3);
/// ```
pub fn batches<R: Rng + ?Sized>(
    n: usize,
    batch_size: usize,
    drop_singletons: bool,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    let perm = permutation(rng, n);
    let mut out: Vec<Vec<usize>> = perm
        .chunks(batch_size)
        .map(|chunk| chunk.to_vec())
        .collect();
    if drop_singletons {
        out.retain(|b| b.len() > 1);
    }
    out
}

/// One batch's two augmented views, `(view_e, view_o)`.
pub type TwoViews = (Matrix, Matrix);

/// Renders every two-view batch of a client's SSL local update:
/// `result[epoch][b]` holds the views of batch `b` of `epoch`.
///
/// Draws from `rng_` exactly as the interleaved loop did — per epoch, the
/// [`batches`] shuffle (singletons dropped), then each batch's
/// [`SynthVision::render_two_views`] in order — so training on the result
/// is bit-identical to rendering each batch just before its step. The views
/// depend on the client's data and RNG, never on the model, which is what
/// lets the round's worker queue render them ahead (`calibre_fl::parallel`).
///
/// A pool of fewer than 2 samples has no contrastive batch: the result is
/// empty and `rng_` is not drawn from.
///
/// # Examples
///
/// ```
/// use calibre_data::batch::render_local_views;
/// use calibre_data::{AugmentConfig, SynthVision, SynthVisionSpec};
///
/// let gen = SynthVision::new(SynthVisionSpec::cifar10());
/// let mut rng = calibre_tensor::rng::seeded(0);
/// let samples: Vec<_> = (0..5).map(|c| gen.sample(c, &mut rng)).collect();
/// let pool: Vec<_> = samples.iter().collect();
/// let views = render_local_views(&pool, &gen, &AugmentConfig::default(), 2, 2, &mut rng);
/// assert_eq!(views.len(), 2);
/// assert_eq!(views[0].len(), 2, "5 samples in batches of 2: the singleton is dropped");
/// ```
pub fn render_local_views<R: Rng + ?Sized>(
    pool: &[&Sample],
    generator: &SynthVision,
    aug: &AugmentConfig,
    epochs: usize,
    batch_size: usize,
    rng_: &mut R,
) -> Vec<Vec<TwoViews>> {
    if pool.len() < 2 {
        return Vec::new();
    }
    (0..epochs)
        .map(|_| {
            batches(pool.len(), batch_size, true, rng_)
                .into_iter()
                .map(|batch| {
                    let samples = batch.iter().filter_map(|&i| pool.get(i).copied());
                    generator.render_two_views(samples, aug, rng_)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_tensor::rng::seeded;

    #[test]
    fn covers_every_index_exactly_once() {
        let mut rng = seeded(1);
        let b = batches(23, 5, false, &mut rng);
        let mut all: Vec<usize> = b.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn drop_singletons_removes_trailing_one() {
        let mut rng = seeded(2);
        let b = batches(9, 4, true, &mut rng);
        assert_eq!(b.len(), 2, "the trailing singleton batch must be dropped");
        assert!(b.iter().all(|batch| batch.len() > 1));
    }

    #[test]
    fn empty_input_gives_no_batches() {
        let mut rng = seeded(3);
        assert!(batches(0, 8, false, &mut rng).is_empty());
    }

    #[test]
    fn batches_are_shuffled() {
        let mut rng = seeded(4);
        let b = batches(100, 100, false, &mut rng);
        assert_ne!(b[0], (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let mut rng = seeded(5);
        batches(10, 0, false, &mut rng);
    }
}
