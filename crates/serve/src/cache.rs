//! A byte-budgeted LRU map, used twice by the server:
//!
//! * the **result cache** — `(instance-hash, op, R)` → reply
//!   body, budgeted by `--cache-mb`;
//! * the **instance store** — content hash → parsed
//!   [`Instance`](mmlp_instance::Instance), budgeted by serialised
//!   size.
//!
//! Entries carry an explicit `cost`; inserting past the budget evicts
//! from the least-recently-used end until the new entry fits. The
//! recency list is an index-linked doubly-linked list over a slab, so
//! `get`/`insert`/eviction are all O(1) (amortised, modulo the hash
//! map) — no scan, no allocation churn on hits.

//! [`ShardedLru`] wraps 16 independently locked [`Lru`] shards selected
//! by the low bits of the key's hash (the same scheme `mmlp-store` uses
//! for its segment files), so concurrent probes from the serve front-end
//! contend only when they land on the same shard.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

const NIL: usize = usize::MAX;

/// Number of shards in a [`ShardedLru`]. Kept in sync with the
/// `mmlp-store` segment count so one hash distributes both.
pub const SHARDS: usize = 16;

struct Slot<K, V> {
    key: K,
    value: V,
    cost: u64,
    prev: usize,
    next: usize,
}

/// The byte-budgeted LRU map.
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    budget: u64,
    used: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache with the given total cost budget.
    pub fn new(budget: u64) -> Self {
        Lru {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            budget,
            used: 0,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the costs of live entries.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured cost budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Total number of entries evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slots[idx].as_ref().expect("live slot");
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev].as_mut().expect("live slot").next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].as_mut().expect("live slot").prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let s = self.slots[idx].as_mut().expect("live slot");
            s.prev = NIL;
            s.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("live slot").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.slots[idx].as_ref().expect("live slot").value)
    }

    /// Whether `key` is present, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// The value of the first live entry whose key satisfies `pred`,
    /// *without* touching recency. A scan over the slab: for maps small
    /// enough to walk, like the parked delta solvers.
    pub fn find(&self, mut pred: impl FnMut(&K) -> bool) -> Option<&V> {
        self.slots
            .iter()
            .flatten()
            .find(|s| pred(&s.key))
            .map(|s| &s.value)
    }

    /// Inserts `key → value` with the given cost, evicting LRU entries
    /// until it fits. An entry whose cost alone exceeds the whole
    /// budget is refused (returns `false`) — the cache stays bounded no
    /// matter what is thrown at it. Re-inserting an existing key
    /// replaces its value and cost.
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> bool {
        if cost > self.budget {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            let old = self.slots[idx].take().expect("live slot");
            self.used -= old.cost;
            self.free.push(idx);
            self.map.remove(&key);
        }
        while self.used + cost > self.budget {
            self.evict_one();
        }
        let slot = Slot {
            key: key.clone(),
            value,
            cost,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        self.used += cost;
        true
    }

    fn evict_one(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict called on an empty cache");
        self.unlink(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.map.remove(&slot.key);
        self.used -= slot.cost;
        self.free.push(idx);
        self.evictions += 1;
    }

    /// Removes `key`, returning its value. Used by the delta
    /// coordinator, which takes a solver out of the cache while it
    /// advances revisions and re-inserts it under the new key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.used -= slot.cost;
        self.free.push(idx);
        Some(slot.value)
    }

    /// Drops every entry (budget unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
    }
}

/// Maps a key to its shard index (must be `< SHARDS`).
///
/// Implementations use the key's *low bits* so content hashes spread
/// uniformly — `instance_hash` ends in a full finalizer, so every bit
/// of its input reaches the low nibble.
pub trait ShardKey {
    /// The shard this key lives in.
    fn shard(&self) -> usize;
}

impl ShardKey for u64 {
    fn shard(&self) -> usize {
        (*self & (SHARDS as u64 - 1)) as usize
    }
}

/// A 16-way sharded [`Lru`]: each shard has its own lock and a slice of
/// the total byte budget, so probes on different shards never contend.
///
/// The budget is split evenly across shards (remainder bytes go to the
/// lowest shards), which preserves the total-budget bound exactly:
/// the sum of shard budgets equals the configured total. The one
/// observable difference from a single LRU is that an entry larger
/// than its *shard's* slice (≈ total/16) is refused rather than
/// evicting everything else, and a hot shard evicts locally while cold
/// shards keep their entries — recency is per-shard, not global.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Lru<K, V>>>,
    budget: u64,
}

impl<K: Eq + Hash + Clone + ShardKey, V: Clone> ShardedLru<K, V> {
    /// An empty sharded cache with the given *total* cost budget.
    pub fn new(budget: u64) -> Self {
        let base = budget / SHARDS as u64;
        let extra = budget % SHARDS as u64;
        let shards = (0..SHARDS)
            .map(|i| Mutex::new(Lru::new(base + u64::from((i as u64) < extra))))
            .collect();
        ShardedLru { shards, budget }
    }

    fn shard(&self, key: &K) -> &Mutex<Lru<K, V>> {
        &self.shards[key.shard() % SHARDS]
    }

    /// Looks up `key`, marking it most recently used within its shard.
    /// Returns a clone, so the shard lock is held only for the probe.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("lru shard lock")
            .get(key)
            .cloned()
    }

    /// Whether `key` is present, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.shard(key)
            .lock()
            .expect("lru shard lock")
            .contains(key)
    }

    /// Inserts `key → value` into its shard, evicting LRU entries there
    /// until it fits. Returns `false` when the cost alone exceeds the
    /// shard's budget slice.
    pub fn insert(&self, key: K, value: V, cost: u64) -> bool {
        self.shard(&key)
            .lock()
            .expect("lru shard lock")
            .insert(key, value, cost)
    }

    /// Removes `key` from its shard, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("lru shard lock").remove(key)
    }

    /// The configured *total* budget (sum of all shard slices).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Aggregated `(entries, used bytes, evictions)` across all shards.
    pub fn stats(&self) -> (usize, u64, u64) {
        let mut len = 0;
        let mut used = 0;
        let mut ev = 0;
        for s in &self.shards {
            let g = s.lock().expect("lru shard lock");
            len += g.len();
            used += g.used();
            ev += g.evictions();
        }
        (len, used, ev)
    }

    /// Per-shard eviction counters, indexed by shard.
    pub fn shard_evictions(&self) -> [u64; SHARDS] {
        let mut out = [0u64; SHARDS];
        for (i, s) in self.shards.iter().enumerate() {
            out[i] = s.lock().expect("lru shard lock").evictions();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the model tests drive beside the real caches: the
    /// live entries in a `Vec`, most recently used first.
    struct Model {
        budget: u64,
        entries: Vec<(u64, u64, u64)>, // (key, value, cost)
        evictions: u64,
    }

    impl Model {
        fn new(budget: u64) -> Self {
            Model {
                budget,
                entries: Vec::new(),
                evictions: 0,
            }
        }

        fn used(&self) -> u64 {
            self.entries.iter().map(|e| e.2).sum()
        }

        fn at(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            let e = self.entries.remove(self.at(key)?);
            self.entries.insert(0, e);
            Some(e.1)
        }

        fn insert(&mut self, key: u64, value: u64, cost: u64) -> bool {
            if cost > self.budget {
                return false;
            }
            if let Some(i) = self.at(key) {
                self.entries.remove(i);
            }
            while self.used() + cost > self.budget {
                self.entries.pop();
                self.evictions += 1;
            }
            self.entries.insert(0, (key, value, cost));
            true
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            Some(self.entries.remove(self.at(key)?).1)
        }

        /// Checks `lru` against the model: the same size, cost and
        /// evictions, within the budget.
        fn check(&self, lru: &Lru<u64, u64>) {
            assert_eq!(lru.len(), self.entries.len());
            assert_eq!(lru.used(), self.used());
            assert_eq!(lru.evictions(), self.evictions);
            assert!(lru.used() <= lru.budget());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `Lru` against the reference under random `insert` (costs
        /// up to budget + 2, so some are refused), `get`, `remove`,
        /// `contains` and `find` calls.
        #[test]
        fn lru_matches_a_recency_ordered_model(
            budget in 1u64..40,
            ops in proptest::collection::vec((0u8..5, 0u64..12, 0u64..1_000), 1..200),
        ) {
            let mut lru = Lru::new(budget);
            let mut model = Model::new(budget);
            for (step, (kind, key, draw)) in ops.into_iter().enumerate() {
                let value = step as u64;
                match kind {
                    0 => {
                        let cost = draw % (budget + 3);
                        prop_assert_eq!(lru.insert(key, value, cost), model.insert(key, value, cost));
                    }
                    1 => prop_assert_eq!(lru.get(&key).copied(), model.get(key)),
                    2 => prop_assert_eq!(lru.remove(&key), model.remove(key)),
                    3 => prop_assert_eq!(lru.contains(&key), model.at(key).is_some()),
                    _ => prop_assert_eq!(
                        lru.find(|k| *k == key).copied(),
                        model.at(key).map(|i| model.entries[i].1)
                    ),
                }
                model.check(&lru);
            }
        }

        /// `ShardedLru` against one reference per shard at that
        /// shard's budget slice; `stats()` is their sum.
        #[test]
        fn sharded_lru_matches_one_model_per_shard(
            budget in 16u64..400,
            ops in proptest::collection::vec((0u8..4, 0u64..64, 0u64..1_000), 1..300),
        ) {
            let lru: ShardedLru<u64, u64> = ShardedLru::new(budget);
            let mut models: Vec<Model> = lru
                .shards
                .iter()
                .map(|s| Model::new(s.lock().unwrap().budget()))
                .collect();
            for (step, (kind, key, draw)) in ops.into_iter().enumerate() {
                let value = step as u64;
                let model = &mut models[key.shard()];
                match kind {
                    0 => {
                        let cost = draw % (model.budget + 3);
                        prop_assert_eq!(lru.insert(key, value, cost), model.insert(key, value, cost));
                    }
                    1 => prop_assert_eq!(lru.get(&key), model.get(key)),
                    2 => prop_assert_eq!(lru.remove(&key), model.remove(key)),
                    _ => prop_assert_eq!(lru.contains(&key), model.at(key).is_some()),
                }
                for (shard, model) in lru.shards.iter().zip(&models) {
                    model.check(&shard.lock().unwrap());
                }
                let len = models.iter().map(|m| m.entries.len()).sum();
                let used = models.iter().map(Model::used).sum();
                let evictions = models.iter().map(|m| m.evictions).sum();
                prop_assert_eq!(lru.stats(), (len, used, evictions));
            }
        }
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut c: Lru<u32, &'static str> = Lru::new(100);
        assert!(c.insert(1, "one", 10));
        assert!(c.insert(2, "two", 10));
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.used(), 20);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c: Lru<u32, u32> = Lru::new(30);
        c.insert(1, 1, 10);
        c.insert(2, 2, 10);
        c.insert(3, 3, 10);
        // Touch 1 so 2 becomes the LRU, then overflow.
        assert!(c.get(&1).is_some());
        c.insert(4, 4, 10);
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
        assert!(!c.contains(&2), "2 was least recently used");
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn one_insert_can_evict_many() {
        let mut c: Lru<u32, u32> = Lru::new(30);
        c.insert(1, 1, 10);
        c.insert(2, 2, 10);
        c.insert(3, 3, 10);
        c.insert(9, 9, 25);
        assert_eq!(c.len(), 1, "all three small entries had to go");
        assert!(c.contains(&9));
        assert_eq!(c.used(), 25);
        assert_eq!(c.evictions(), 3);
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut c: Lru<u32, u32> = Lru::new(10);
        assert!(!c.insert(1, 1, 11));
        assert!(c.is_empty());
        assert!(c.insert(2, 2, 10));
    }

    #[test]
    fn reinsert_replaces_value_and_cost() {
        let mut c: Lru<u32, &'static str> = Lru::new(20);
        c.insert(1, "a", 10);
        c.insert(1, "b", 15);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 15);
        assert_eq!(c.get(&1), Some(&"b"));
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c: Lru<u32, u32> = Lru::new(20);
        for i in 0..1000 {
            c.insert(i, i, 10);
        }
        assert_eq!(c.len(), 2);
        assert!(c.slots.len() <= 3, "slab must recycle, not grow");
    }

    #[test]
    fn remove_returns_the_value_and_frees_budget() {
        let mut c: Lru<u32, &'static str> = Lru::new(30);
        c.insert(1, "one", 10);
        c.insert(2, "two", 10);
        assert_eq!(c.remove(&1), Some("one"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 10);
        // The freed slot and budget are reusable.
        assert!(c.insert(3, "three", 20));
        assert!(c.contains(&2) && c.contains(&3));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c: Lru<u32, u32> = Lru::new(50);
        for i in 0..5 {
            c.insert(i, i, 10);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
        assert!(c.insert(1, 1, 50));
    }

    // -- ShardedLru --------------------------------------------------------

    #[test]
    fn sharded_budget_slices_sum_to_total() {
        // 100 = 16*6 + 4: four shards get 7, twelve get 6.
        let c: ShardedLru<u64, u32> = ShardedLru::new(100);
        let per_shard: u64 = c.shards.iter().map(|s| s.lock().unwrap().budget()).sum();
        assert_eq!(per_shard, 100);
        assert_eq!(c.budget(), 100);
    }

    #[test]
    fn sharded_keys_land_in_low_bit_shards() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(16 * 100);
        for k in 0..64u64 {
            assert!(c.insert(k, k, 1));
        }
        for (i, s) in c.shards.iter().enumerate() {
            let g = s.lock().unwrap();
            assert_eq!(g.len(), 4, "shard {i} holds exactly the keys ≡ {i} mod 16");
        }
        for k in 0..64u64 {
            assert_eq!(c.get(&k), Some(k));
        }
        let (len, used, ev) = c.stats();
        assert_eq!((len, used, ev), (64, 64, 0));
    }

    #[test]
    fn sharded_evictions_are_per_shard_and_counted() {
        // Each shard gets a budget of 2; three same-shard inserts evict one.
        let c: ShardedLru<u64, u32> = ShardedLru::new(32);
        assert!(c.insert(0x10, 1, 1));
        assert!(c.insert(0x20, 2, 1));
        assert!(c.insert(0x30, 3, 1)); // shard 0 overflows
        assert!(c.insert(0x01, 4, 1)); // shard 1 untouched by shard 0 pressure
        let ev = c.shard_evictions();
        assert_eq!(ev[0], 1);
        assert_eq!(ev[1..].iter().sum::<u64>(), 0);
        assert!(!c.contains(&0x10), "0x10 was shard 0's LRU");
        assert!(c.contains(&0x01));
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn sharded_refuses_entries_beyond_shard_slice() {
        let c: ShardedLru<u64, u32> = ShardedLru::new(160); // 10 per shard
        assert!(!c.insert(5, 1, 11), "bigger than the shard slice");
        assert!(c.insert(5, 1, 10));
        assert_eq!(c.remove(&5), Some(1));
        assert_eq!(c.remove(&5), None);
    }
}
