//! Top-k principal components by power iteration with deflation.
//!
//! Fig. 2 of the paper uses t-SNE to show that global cache updates pull
//! cached semantic centers toward the true per-class sample centers. The
//! reproduction substitutes a deterministic 2-D PCA projection: power
//! iteration on the covariance Gram matrix is exact enough for a scatter
//! projection and has no stochastic layout.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::vector::{axpy, dot, l2_norm, l2_normalize, random_unit, scale};

/// Result of a PCA fit: `k` orthonormal components and the data mean.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Orthonormal principal axes, strongest first.
    pub components: Vec<Vec<f32>>,
    /// Mean vector subtracted before projection.
    pub mean: Vec<f32>,
    /// Eigenvalue estimate (variance) per component.
    pub eigenvalues: Vec<f32>,
}

impl Pca {
    /// Fits `k` principal components to `rows` (each a `dim`-length sample)
    /// using `iters` power iterations per component.
    ///
    /// Deterministic: the starting vectors come from a fixed seed.
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[&[f32]], k: usize, iters: usize) -> Pca {
        assert!(!rows.is_empty(), "Pca::fit: empty input");
        let dim = rows[0].len();
        for r in rows {
            assert_eq!(r.len(), dim, "Pca::fit: ragged input");
        }
        let mut mean = vec![0.0f32; dim];
        for r in rows {
            axpy(1.0, r, &mut mean);
        }
        scale(1.0 / rows.len() as f32, &mut mean);

        // Centered copies — covariance-vector products then need only dots.
        let centered: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().zip(&mean).map(|(x, m)| x - m).collect())
            .collect();

        let mut rng = SmallRng::seed_from_u64(0xC0CA_07CA);
        let mut components: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut eigenvalues = Vec::with_capacity(k);

        for _ in 0..k.min(dim) {
            let mut v = random_unit(&mut rng, dim);
            let mut lambda = 0.0f32;
            for _ in 0..iters {
                // w = C v = (1/n) Σ x (xᵀ v), deflated against found axes.
                let mut w = vec![0.0f32; dim];
                for x in &centered {
                    let c = dot(x, &v);
                    axpy(c, x, &mut w);
                }
                scale(1.0 / centered.len() as f32, &mut w);
                for c in &components {
                    let proj = dot(&w, c);
                    axpy(-proj, c, &mut w);
                }
                lambda = l2_norm(&w);
                if lambda <= f32::MIN_POSITIVE {
                    // Remaining variance is zero; keep previous v.
                    break;
                }
                l2_normalize(&mut w);
                v = w;
            }
            components.push(v);
            eigenvalues.push(lambda);
        }
        Pca {
            components,
            mean,
            eigenvalues,
        }
    }

    /// Projects one sample onto the fitted components.
    pub fn project(&self, row: &[f32]) -> Vec<f32> {
        let centered: Vec<f32> = row.iter().zip(&self.mean).map(|(x, m)| x - m).collect();
        self.components.iter().map(|c| dot(&centered, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn recovers_dominant_axis() {
        // Data stretched along (1,1,0)/sqrt(2), tiny noise elsewhere.
        let mut rng = SmallRng::seed_from_u64(5);
        let axis = [
            std::f32::consts::FRAC_1_SQRT_2,
            std::f32::consts::FRAC_1_SQRT_2,
            0.0,
        ];
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|_| {
                let t: f32 = rng.gen_range(-3.0..3.0);
                let n: f32 = rng.gen_range(-0.01..0.01);
                vec![axis[0] * t + n, axis[1] * t - n, n]
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let pca = Pca::fit(&refs, 2, 50);
        let c0 = &pca.components[0];
        let alignment = dot(c0, &axis).abs();
        assert!(alignment > 0.999, "alignment {alignment}");
        assert!(pca.eigenvalues[0] > 10.0 * pca.eigenvalues[1]);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(6);
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let pca = Pca::fit(&refs, 3, 60);
        for i in 0..3 {
            assert!((l2_norm(&pca.components[i]) - 1.0).abs() < 1e-3);
            for j in 0..i {
                assert!(dot(&pca.components[i], &pca.components[j]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn projection_of_mean_is_origin() {
        let rows = [vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let pca = Pca::fit(&refs, 1, 20);
        let p = pca.project(&[2.0, 3.0]);
        assert!(p[0].abs() < 1e-5);
    }
}
