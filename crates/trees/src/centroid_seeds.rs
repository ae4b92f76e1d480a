//! A data-adaptive seed-selection strategy — the extension the paper's
//! discussion calls for ("more effective and data-adaptive seed selection
//! strategies should be developed").
//!
//! **CS (Centroid Seeds)**: cluster the dataset once with k-means (the
//! number of centroids adapts to the dataset size as `c = ⌈√n⌉`, capped);
//! at query time, rank centroids by distance to the query and seed the
//! beam search with stored members nearest to the best centroids. This
//! costs `c` counted distance evaluations per query — adaptive to dataset
//! *distribution* (centroids follow density), unlike KS (uniform) or SF
//! (static), and far cheaper to build than SN's stacked graphs.

use crate::kmeans::kmeans;
use gass_core::distance::{l2_sq, Space};
use gass_core::reorder::IdRemap;
use gass_core::seed::SeedProvider;

/// Data-adaptive centroid-based seed provider.
#[derive(Clone, Debug)]
pub struct CentroidSeeds {
    centroids: Vec<Vec<f32>>,
    /// For each centroid, its member ids sorted by distance to the
    /// centroid (closest first).
    members: Vec<Vec<u32>>,
}

impl CentroidSeeds {
    /// Builds the structure over `space`'s store. `max_centroids` caps the
    /// adaptive `⌈√n⌉` choice (0 = uncapped).
    pub fn build(space: Space<'_>, max_centroids: usize, seed: u64) -> Self {
        let n = space.len();
        assert!(n > 0, "centroid seeds over empty store");
        let mut c = (n as f64).sqrt().ceil() as usize;
        if max_centroids > 0 {
            c = c.min(max_centroids);
        }
        c = c.clamp(1, n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let clustering = kmeans(space, &ids, c, 6, seed);
        let mut members = clustering.groups(&ids);
        // Sort members by proximity to their centroid so the first few are
        // the most representative seeds.
        for (ci, group) in members.iter_mut().enumerate() {
            let centroid = &clustering.centroids[ci];
            group.sort_by(|&a, &b| {
                l2_sq(space.store().get(a), centroid)
                    .total_cmp(&l2_sq(space.store().get(b), centroid))
            });
        }
        Self { centroids: clustering.centroids, members }
    }

    /// Number of centroids.
    pub fn num_centroids(&self) -> usize {
        self.centroids.len()
    }
}

impl SeedProvider for CentroidSeeds {
    fn seeds(&self, space: Space<'_>, query: &[f32], count: usize, out: &mut Vec<u32>) {
        let want = count.max(1);
        // Rank centroids by counted distance to the query.
        let mut ranked: Vec<(f32, usize)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                space.counter().bump();
                (l2_sq(query, c), ci)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Fill from the best centroid's most representative members first,
        // spilling into the next-ranked centroids only when needed — seeds
        // stay concentrated in the query's region.
        for &(_, ci) in &ranked {
            for &id in &self.members[ci] {
                out.push(id);
                if out.len() >= want {
                    return;
                }
            }
        }
        if out.is_empty() {
            // All nearby centroids empty (degenerate clustering): any
            // member works.
            if let Some(first) = self.members.iter().find_map(|m| m.first().copied()) {
                out.push(first);
            }
        }
    }

    fn label(&self) -> &'static str {
        "CS"
    }

    fn reorder(&mut self, map: &IdRemap) {
        // Member lists are ordered by proximity to their centroid — a
        // property of the vectors, not the labels — so an in-place id
        // remap preserves the emission order exactly.
        for group in &mut self.members {
            for id in group.iter_mut() {
                *id = map.to_new(*id);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        let c: usize =
            self.centroids.iter().map(|v| v.capacity() * std::mem::size_of::<f32>()).sum();
        let m: usize =
            self.members.iter().map(|v| v.capacity() * std::mem::size_of::<u32>()).sum();
        c + m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::DistCounter;
    use gass_core::store::VectorStore;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn blobs(seed: u64) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorStore::new(4);
        for c in 0..5 {
            let center = c as f32 * 8.0;
            for _ in 0..40 {
                let v: Vec<f32> =
                    (0..4).map(|_| center + rng.random_range(-0.4..0.4f32)).collect();
                s.push(&v);
            }
        }
        s
    }

    #[test]
    fn adapts_centroid_count_to_n() {
        let store = blobs(1);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let cs = CentroidSeeds::build(space, 0, 2);
        // sqrt(200) ~ 15.
        assert!(cs.num_centroids() >= 10 && cs.num_centroids() <= 20);
        let capped = CentroidSeeds::build(space, 4, 2);
        assert_eq!(capped.num_centroids(), 4);
    }

    #[test]
    fn seeds_come_from_the_query_region() {
        let store = blobs(3);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let cs = CentroidSeeds::build(space, 0, 4);
        counter.reset();
        let mut out = Vec::new();
        // Query at blob 2's center (ids 80..120).
        cs.seeds(space, &[16.0, 16.0, 16.0, 16.0], 8, &mut out);
        assert!(!out.is_empty());
        let hits = out.iter().filter(|&&id| (80..120).contains(&id)).count();
        assert!(
            hits * 2 >= out.len(),
            "seeds should come from the home blob: {hits}/{}",
            out.len()
        );
        // Per-query cost = one distance per centroid (counted).
        assert_eq!(counter.get(), cs.num_centroids() as u64);
    }

    #[test]
    fn respects_requested_count() {
        let store = blobs(5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let cs = CentroidSeeds::build(space, 0, 6);
        let mut out = Vec::new();
        cs.seeds(space, &[0.0; 4], 5, &mut out);
        assert!(out.len() >= 5);
        assert_eq!(cs.label(), "CS");
    }

    #[test]
    fn single_point_store_works() {
        let mut s = VectorStore::new(2);
        s.push(&[1.0, 1.0]);
        let counter = DistCounter::new();
        let space = Space::new(&s, &counter);
        let cs = CentroidSeeds::build(space, 0, 7);
        let mut out = Vec::new();
        cs.seeds(space, &[0.0, 0.0], 3, &mut out);
        assert_eq!(out[0], 0);
    }
}
