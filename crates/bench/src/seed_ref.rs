//! The seed (pre-columnar) server data plane, reimplemented verbatim as
//! the **measurement reference** for the server-core benches: boxed
//! `Option<Vec<f32>>` cells, uploads as `HashMap<(class, layer), vector>`
//! (the seed `UpdateTable` shape, iterated in hash order), per-cell
//! `scale`/`axpy`/`normalize` merge, per-cell `to_vec` + `insert`
//! extraction. `cargo bench`'s server grid and `exp_fleet`'s merge sweep
//! both price their improvements against this path, so the
//! reference lives here once instead of being copied per consumer.
//!
//! Not wired into any engine — it exists to be measured against.

use std::collections::HashMap;

use coca_core::{CacheLayer, LocalCache};
use coca_math::vector::{axpy, l2_normalize, scale};

/// The seed upload shape: tuple-keyed boxed rows.
pub type SeedUpload = HashMap<(u32, u32), Vec<f32>>;

/// The seed global table: one boxed row per populated cell.
pub struct SeedTable {
    /// Class rows.
    pub classes: usize,
    /// Layer columns.
    pub layers: usize,
    /// Row-major boxed cells (`class * layers + layer`).
    pub entries: Vec<Option<Vec<f32>>>,
    /// Φ — global class frequencies.
    pub frequency: Vec<u64>,
}

impl SeedTable {
    /// An empty `classes × layers` table.
    pub fn new(classes: usize, layers: usize) -> Self {
        Self {
            classes,
            layers,
            entries: vec![None; classes * layers],
            frequency: vec![0; classes],
        }
    }

    fn idx(&self, class: usize, layer: usize) -> usize {
        class * self.layers + layer
    }

    /// Seeds one cell (normalized on insertion, like the live table).
    pub fn set(&mut self, class: usize, layer: usize, mut v: Vec<f32>) {
        l2_normalize(&mut v);
        let i = self.idx(class, layer);
        self.entries[i] = Some(v);
    }

    /// The seed Eq. 4/5 merge: per-cell scale → axpy → normalize in the
    /// upload map's hash order.
    pub fn merge_update(&mut self, u: &SeedUpload, phi: &[u64], gamma: f32) {
        for (&(class, layer), vector) in u.iter() {
            let (class, layer) = (class as usize, layer as usize);
            if class >= self.classes || layer >= self.layers {
                continue;
            }
            let phi_i = phi[class] as f32;
            if phi_i <= 0.0 {
                continue;
            }
            let cap_phi = self.frequency[class] as f32;
            let i = self.idx(class, layer);
            match &mut self.entries[i] {
                Some(e) => {
                    let w_old = gamma * cap_phi / (cap_phi + phi_i);
                    let w_new = phi_i / (cap_phi + phi_i);
                    scale(w_old, e);
                    axpy(w_new, vector, e);
                    l2_normalize(e);
                }
                None => {
                    let mut v = vector.to_vec();
                    l2_normalize(&mut v);
                    self.entries[i] = Some(v);
                }
            }
        }
        for (f, &p) in self.frequency.iter_mut().zip(phi) {
            *f += p;
        }
    }

    /// The seed extraction: per-cell `to_vec` + `insert`.
    pub fn extract(&self, layers: &[usize], classes: &[usize]) -> LocalCache {
        let mut out = Vec::with_capacity(layers.len());
        for &layer in layers {
            let mut cl = CacheLayer::new(layer);
            for &class in classes {
                if let Some(v) = self.entries[self.idx(class, layer)].as_deref() {
                    cl.insert(class, v.to_vec());
                }
            }
            if !cl.is_empty() {
                out.push(cl);
            }
        }
        LocalCache::from_layers(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_table_merges_and_extracts() {
        let mut t = SeedTable::new(2, 2);
        t.set(0, 0, vec![1.0, 0.0]);
        t.frequency[0] = 10;
        let mut up = SeedUpload::new();
        up.insert((0, 0), vec![0.0, 1.0]);
        up.insert((1, 1), vec![0.6, 0.8]);
        t.merge_update(&up, &[5, 3], 0.99);
        assert_eq!(t.frequency, vec![15, 3]);
        let cache = t.extract(&[0, 1], &[0, 1]);
        assert_eq!(cache.num_layers(), 2);
    }
}
