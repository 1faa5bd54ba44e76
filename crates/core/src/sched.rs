//! Active-set scheduling for the cycle engine.
//!
//! [`ActiveSet`] is a dense bitset over PE ids tracking which PEs can
//! possibly do work this cycle. The fabric's per-phase sweeps iterate only
//! the set bits instead of the whole array, so fully-drained regions of the
//! fabric cost nothing per cycle.
//!
//! Membership discipline (maintained by [`crate::fabric::Fabric::step`]):
//!
//! * a PE **enters** the set when an instruction is injected towards it
//!   (orchestrator issue at column 0, eastward forwarding of a retiring
//!   instruction) or when a NoC push lands on one of its input links
//!   (south push from the row above, east push from the column to the
//!   west, north-edge feeder token);
//! * a PE **leaves** the set at end of cycle once its pipeline holds no
//!   [`InFlight`](crate::pe) state, no injection is pending, and both its
//!   input links are empty.
//!
//! The removal condition is exact (checked against the same state the
//! quiescence predicate used to sweep), which lets the fabric's per-cycle
//! quiescence check collapse to `active.is_empty()` plus O(rows) of
//! orchestrator state.

/// A dense bitset of PE ids with O(1) insert/remove and word-wise iteration.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl ActiveSet {
    /// An empty set over ids `0..n`.
    pub fn new(n: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            len: n,
            count: 0,
        }
    }

    /// Number of ids the set ranges over.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Deactivates every id, keeping the backing words (fabric reuse).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Number of active ids.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no id is active.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Marks `idx` active. Returns `true` when the id was newly inserted.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Marks `idx` inactive.
    #[inline]
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.count -= 1;
        }
    }

    /// True when `idx` is active.
    pub fn contains(&self, idx: usize) -> bool {
        self.words[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Number of backing words (for manual word-wise iteration).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th backing word. Iterating a *copy* of each word while
    /// mutating the set is the fabric's idiom: ids woken mid-sweep are
    /// picked up next phase (waking is monotone — it only adds candidates,
    /// and a freshly woken PE has no same-cycle work by construction).
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Active ids in ascending order (diagnostics / tests; allocates).
    pub fn iter_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((w << 6) | tz)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_count() {
        let mut s = ActiveSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129)); // idempotent, not a new wake
        assert_eq!(s.count(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(1));
        s.remove(64);
        s.remove(64); // idempotent
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter_ids().collect::<Vec<_>>(), vec![0, 63, 129]);
        assert_eq!(s.universe(), 130);
    }

    #[test]
    fn word_iteration_matches_iter_ids() {
        let mut s = ActiveSet::new(200);
        for idx in [3, 64, 65, 127, 128, 199] {
            s.insert(idx);
        }
        let mut via_words = Vec::new();
        for w in 0..s.word_count() {
            let mut bits = s.word(w);
            while bits != 0 {
                via_words.push((w << 6) | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        assert_eq!(via_words, s.iter_ids().collect::<Vec<_>>());
    }
}
