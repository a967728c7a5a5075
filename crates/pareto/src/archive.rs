//! The bounded Pareto archive `M_archive` with crowding truncation.

use crate::{compare, crowding_distances, DomRelation, Dominance};

/// A capacity-bounded Pareto front.
///
/// Inserting works like [`crate::ParetoFront::insert`], except that when the
/// archive is full and the candidate is non-dominated, a crowding comparison
/// over the members *plus the candidate* decides: the most crowded point
/// (lowest NSGA-II crowding distance) is deleted — possibly the candidate
/// itself. This matches §III.B of the paper: "a solution that has a low
/// distance value has similar fitness values compared to the rest of the
/// solutions and will be deleted", keeping the archive spread along the
/// front instead of clustering.
#[derive(Debug, Clone)]
pub struct Archive<T: Dominance> {
    items: Vec<T>,
    capacity: usize,
}

impl<T: Dominance> Archive<T> {
    /// An empty archive holding at most `capacity` members.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "archive capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// The archive's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current members (mutually non-dominated, unordered).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Attempts to insert `item`.
    ///
    /// Returns `true` iff the item was *added* — i.e. it was non-dominated,
    /// not a duplicate, and survived the crowding comparison if the archive
    /// was full. This boolean is what the paper calls an "improving
    /// solution" in the collaborative variant (§III.E) and what drives the
    /// no-improvement restart counter.
    pub fn insert(&mut self, item: T) -> bool {
        self.survives_dominance(item.objectives()) && self.place(item)
    }

    /// [`insert`](Self::insert) for a candidate known by its objective
    /// vector, built only if it survives the dominance pass: `build` runs
    /// at most once, and the archive ends exactly as `insert(build())`
    /// would leave it. A search that offers many neighbors and admits few
    /// materializes only the admitted ones.
    pub fn insert_with(&mut self, objectives: &[f64], build: impl FnOnce() -> T) -> bool {
        if !self.survives_dominance(objectives) {
            return false;
        }
        let item = build();
        debug_assert_eq!(
            item.objectives(),
            objectives,
            "built item's objectives differ"
        );
        self.place(item)
    }

    /// The dominance pass of an insert: drops the members `objectives`
    /// dominates and returns whether it survives (no member dominates or
    /// equals it).
    fn survives_dominance(&mut self, objectives: &[f64]) -> bool {
        let mut i = 0;
        while i < self.items.len() {
            match compare(self.items[i].objectives(), objectives) {
                DomRelation::Dominates | DomRelation::Equal => return false,
                DomRelation::DominatedBy => {
                    self.items.swap_remove(i);
                }
                DomRelation::Incomparable => i += 1,
            }
        }
        true
    }

    /// Adds a candidate that survived the dominance pass; when full, the
    /// crowding comparison over members + candidate evicts one of them.
    fn place(&mut self, item: T) -> bool {
        if self.items.len() < self.capacity {
            self.items.push(item);
            return true;
        }
        self.items.push(item);
        let dist = crowding_distances(&self.items);
        let (worst, _) = dist
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("crowding distances are not NaN"))
            .expect("archive is non-empty");
        let evicted_candidate = worst == self.items.len() - 1;
        self.items.swap_remove(worst);
        !evicted_candidate
    }

    /// Inserts every item of `items` in order, returning how many were
    /// added. This is the merge half of archive serialization: a
    /// checkpointed front round-trips through `absorb` into an equivalent
    /// archive (order of equal-capacity inserts is the only freedom, so
    /// replicas merge deterministically when callers fix the order).
    pub fn absorb(&mut self, items: impl IntoIterator<Item = T>) -> usize {
        let mut added = 0;
        for item in items {
            if self.insert(item) {
                added += 1;
            }
        }
        added
    }

    /// Rebuilds an archive from serialized members by inserting them in
    /// order — the deserialization half of archive checkpointing. A
    /// mutually non-dominated `items` that fits `capacity` reproduces the
    /// archive that was serialized.
    pub fn from_items(capacity: usize, items: impl IntoIterator<Item = T>) -> Self {
        let mut archive = Self::new(capacity);
        archive.absorb(items);
        archive
    }

    /// Consumes the archive, returning its members.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::non_dominated_indices;

    #[test]
    fn behaves_like_front_under_capacity() {
        let mut a = Archive::new(10);
        assert!(a.insert(vec![5.0, 5.0]));
        assert!(a.insert(vec![3.0, 7.0]));
        assert!(!a.insert(vec![6.0, 6.0])); // dominated
        assert!(!a.insert(vec![5.0, 5.0])); // duplicate
        assert!(a.insert(vec![4.0, 4.0])); // evicts [5,5]
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn full_archive_evicts_most_crowded() {
        let mut a = Archive::new(4);
        // A spread-out front.
        for v in [[0.0, 10.0], [3.0, 7.0], [7.0, 3.0], [10.0, 0.0]] {
            assert!(a.insert(v.to_vec()));
        }
        assert_eq!(a.len(), 4);
        // A point squeezed right next to [3,7]: somebody in that crowded
        // neighborhood must go, and the archive stays at capacity.
        a.insert(vec![3.1, 6.9]);
        assert_eq!(a.len(), 4);
        let nd = non_dominated_indices(a.items());
        assert_eq!(nd.len(), 4);
    }

    #[test]
    fn crowded_candidate_can_be_rejected() {
        let mut a = Archive::new(3);
        for v in [[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]] {
            a.insert(v.to_vec());
        }
        // Candidate hugging the middle member: it is the most crowded point
        // (boundary members have infinite distance), so either it or [5,5]
        // is evicted; the archive keeps exactly 3 spread members.
        let added = a.insert(vec![5.1, 4.95]);
        assert_eq!(a.len(), 3);
        // Exactly one of {candidate present, candidate rejected} holds.
        let present = a.items().iter().any(|v| v == &vec![5.1, 4.95]);
        assert_eq!(added, present);
    }

    #[test]
    fn boundary_points_survive_truncation() {
        let mut a = Archive::new(3);
        a.insert(vec![0.0, 10.0]);
        a.insert(vec![10.0, 0.0]);
        a.insert(vec![5.0, 5.0]);
        a.insert(vec![4.0, 5.5]);
        a.insert(vec![6.0, 4.5]);
        // Extremes have infinite crowding distance and must never be evicted.
        assert!(a.items().iter().any(|v| v == &vec![0.0, 10.0]));
        assert!(a.items().iter().any(|v| v == &vec![10.0, 0.0]));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn dominating_insert_shrinks_then_accepts() {
        let mut a = Archive::new(2);
        a.insert(vec![5.0, 6.0]);
        a.insert(vec![6.0, 5.0]);
        assert!(a.insert(vec![1.0, 1.0]));
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        Archive::<Vec<f64>>::new(0);
    }

    #[test]
    fn serialized_front_round_trips_through_from_items() {
        let mut a = Archive::new(8);
        for v in [[0.0, 10.0], [3.0, 7.0], [7.0, 3.0], [10.0, 0.0]] {
            a.insert(v.to_vec());
        }
        // A checkpoint ships the members; rebuilding in the same order
        // reproduces the archive exactly.
        let shipped: Vec<Vec<f64>> = a.items().to_vec();
        let rebuilt = Archive::from_items(8, shipped.clone());
        assert_eq!(rebuilt.items(), a.items());
        // Absorbing a replica into a live archive adds only what is new.
        let mut merged = Archive::from_items(8, shipped);
        assert_eq!(merged.absorb(a.items().to_vec()), 0, "duplicates rejected");
        assert_eq!(merged.absorb(vec![vec![1.0, 8.0]]), 1);
    }

    #[test]
    fn members_remain_mutually_non_dominated_under_stress() {
        let mut a = Archive::new(8);
        let mut x = 42u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = ((x >> 33) % 1000) as f64;
            let q = ((x >> 3) % 1000) as f64;
            a.insert(vec![p, q]);
            assert!(a.len() <= 8);
        }
        let nd = non_dominated_indices(a.items());
        assert_eq!(nd.len(), a.len());
    }
}
