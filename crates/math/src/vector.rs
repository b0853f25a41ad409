//! f32 vector kernels.
//!
//! These are the hot path of the reproduction: every simulated inference
//! performs one cosine similarity per cached class per activated cache layer
//! (paper Eq. (1)). Kernels take plain slices so callers can store vectors
//! however they like (rows of a table, `Vec<f32>`, boxed slices).

use rand::Rng;

#[cfg(target_arch = "x86_64")]
mod box_muller_x4;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    // Four accumulators give the optimizer freedom to vectorize without
    // changing the result much; exactness is not required here.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for j in chunks * 4..a.len() {
        sum += a[j] * b[j];
    }
    sum
}

/// Euclidean norm.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Normalizes `v` to unit L2 norm in place. A zero (or denormal-tiny) vector
/// is left untouched — the caller decides how to treat degenerate entries.
///
/// Returns the original norm.
pub fn l2_normalize(v: &mut [f32]) -> f32 {
    let n = l2_norm(v);
    if n > f32::MIN_POSITIVE {
        let inv = 1.0 / n;
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
    n
}

/// Returns a unit-normalized copy of `v` (zero vectors come back unchanged).
pub fn l2_normalized(v: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    l2_normalize(&mut out);
    out
}

/// Cosine similarity for **general** (possibly non-unit) vectors. Zero
/// vectors yield 0.0 (maximally non-committal) rather than NaN so
/// downstream ranking logic stays total.
///
/// This recomputes both L2 norms on every call; the similarity hot paths
/// uphold a unit-norm contract at insertion time (see [`is_unit`]) and
/// call the norm-free [`dot_unit`] instead.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, l2_norm(a), b, l2_norm(b))
}

/// [`cosine`] with the norms `na = l2_norm(a)` and `nb = l2_norm(b)`
/// supplied by the caller — bit-identical to it — for scoring one vector
/// against many whose norms are known.
#[inline]
pub fn cosine_with_norms(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    if na <= f32::MIN_POSITIVE || nb <= f32::MIN_POSITIVE {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// True iff `v` is unit-norm within `tol` — the insertion-time contract
/// (`debug_assert!(is_unit(..))`) that lets every lookup use [`dot_unit`]
/// without renormalizing. A zero vector also passes: degenerate entries
/// (e.g. a whitened feature parallel to the centering direction) score 0
/// under `dot_unit`, exactly what [`cosine`] returned for them.
#[inline]
pub fn is_unit(v: &[f32], tol: f32) -> bool {
    let n = l2_norm(v);
    n <= f32::MIN_POSITIVE || (n - 1.0).abs() < tol
}

/// `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Scales `v` by `alpha` in place.
pub fn scale(alpha: f32, v: &mut [f32]) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

/// Samples a uniformly distributed unit vector of dimension `dim` (Gaussian
/// components, then normalized).
pub fn random_unit<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0; dim];
    fill_random_unit(rng, &mut v);
    v
}

/// Box–Muller pairs drawn ahead of their `ln`/`cos` evaluations: the
/// four-lane kernel takes them four at a time, and on the scalar path,
/// with no RNG step between two libm calls, the CPU overlaps them.
const NORMAL_BLOCK: usize = 32;

/// Overwrites `out` with a uniformly distributed unit vector: the same
/// draws, in the same order, and the same bits as `out.len()` calls to
/// [`standard_normal`] followed by [`l2_normalize`].
///
/// # Panics
/// Panics if `out` is empty.
pub fn fill_random_unit<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    assert!(!out.is_empty(), "random_unit: dim must be positive");
    loop {
        for block in out.chunks_mut(NORMAL_BLOCK) {
            let mut u = [(0.0, 0.0); NORMAL_BLOCK];
            let u = &mut u[..block.len()];
            for pair in u.iter_mut() {
                *pair = uniform_pair(rng);
            }
            box_muller_block(u, block);
        }
        if l2_normalize(out) > 1e-6 {
            return;
        }
        // Astronomically unlikely; resample to preserve the unit-norm
        // postcondition.
    }
}

/// [`box_muller`] of every pair of `u`, into `out`: on four f64 lanes
/// where the CPU has AVX2 and FMA, one pair at a time elsewhere. Both
/// write the same bits (see `box_muller_x4`).
fn box_muller_block(u: &[(f64, f64)], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if box_muller_x4::enabled() {
        // SAFETY: `enabled` just verified AVX2 and FMA on the running CPU,
        // the kernel's only requirement.
        return unsafe { box_muller_x4::block(u, out) };
    }
    box_muller_scalar(u, out);
}

/// The scalar block: CPUs without AVX2 and FMA, and other targets.
fn box_muller_scalar(u: &[(f64, f64)], out: &mut [f32]) {
    for (x, &(u1, u2)) in out.iter_mut().zip(u) {
        *x = box_muller(u1, u2);
    }
}

/// One standard normal sample via Box–Muller (keeps us off rand_distr).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// The two uniforms one Box–Muller sample consumes, in draw order.
#[inline]
fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

#[inline]
fn box_muller(u1: f64, u2: f64) -> f32 {
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Element-wise mean of a non-empty set of equal-length vectors.
///
/// # Panics
/// Panics if `vectors` is empty or lengths differ.
pub fn mean_vector(vectors: &[&[f32]]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "mean_vector: empty input");
    let dim = vectors[0].len();
    let mut mean = vec![0.0f32; dim];
    for v in vectors {
        assert_eq!(v.len(), dim, "mean_vector: ragged input");
        axpy(1.0, v, &mut mean);
    }
    scale(1.0 / vectors.len() as f32, &mut mean);
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = l2_normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0; 8];
        assert_eq!(l2_normalize(&mut v), 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn is_unit_accepts_units_and_zero() {
        assert!(is_unit(&[0.6, 0.8], 1e-3));
        assert!(is_unit(&[0.0, 0.0], 1e-3), "zero vector is degenerate-ok");
        assert!(!is_unit(&[0.6, 0.9], 1e-3));
        let mut v = vec![0.3f32; 37];
        l2_normalize(&mut v);
        assert!(is_unit(&v, 1e-3));
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-2.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn random_unit_is_unit_and_deterministic() {
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        let a = random_unit(&mut r1, 64);
        let b = random_unit(&mut r2, 64);
        assert_eq!(a, b);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-5);

        // The blocked fill is the per-sample sequence, bit for bit, at
        // every block remainder, and leaves the generator where it would.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in (1..=200).chain([257]) {
            let mut reference_rng = SmallRng::seed_from_u64(dim as u64);
            let mut reference: Vec<f32> = (0..dim)
                .map(|_| standard_normal(&mut reference_rng))
                .collect();
            l2_normalize(&mut reference);

            let mut rng = SmallRng::seed_from_u64(dim as u64);
            let mut filled = vec![7.0f32; dim];
            fill_random_unit(&mut rng, &mut filled);
            assert_eq!(bits(&filled), bits(&reference), "fill, dim {dim}");
            assert_eq!(rng.next_u64(), reference_rng.next_u64(), "rng, dim {dim}");

            let mut rng = SmallRng::seed_from_u64(dim as u64);
            assert_eq!(bits(&random_unit(&mut rng, dim)), bits(&reference));
        }
    }

    #[test]
    fn both_blocks_are_the_per_sample_sequence() {
        // The scalar block is called directly, so the path of CPUs without
        // AVX2 and FMA stays covered on a host that has them.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 0..=NORMAL_BLOCK {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let reference: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let u: Vec<(f64, f64)> = (0..n).map(|_| uniform_pair(&mut rng)).collect();
            let mut scalar = vec![f32::NAN; n];
            box_muller_scalar(&u, &mut scalar);
            assert_eq!(bits(&scalar), bits(&reference), "scalar block, n {n}");
            let mut dispatched = vec![f32::NAN; n];
            box_muller_block(&u, &mut dispatched);
            assert_eq!(
                bits(&dispatched),
                bits(&reference),
                "dispatched block, n {n}"
            );
        }
    }

    #[test]
    fn high_dim_random_units_are_nearly_orthogonal() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = random_unit(&mut rng, 512);
        let b = random_unit(&mut rng, 512);
        assert!(cosine(&a, &b).abs() < 0.2, "cos = {}", cosine(&a, &b));
    }

    #[test]
    fn mean_vector_averages() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let m = mean_vector(&[&a, &b]);
        assert_eq!(m, vec![0.5, 0.5]);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0f32, 2.0];
        let mut y = [10.0f32, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }
}
