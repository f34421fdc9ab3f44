//! Message and byte accounting for simulated runs.

/// Totals for one simulated run: a view gather
/// ([`crate::view::gather_views_flat`]), or a whole solve that starts
/// with one and adds the rounds of its later phases.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Number of synchronous rounds executed.
    pub rounds: usize,
    /// Total messages delivered (a node with nothing to send in a round
    /// is silent, and silence is not counted).
    pub messages: u64,
    /// Total payload bytes delivered, each message at its logical
    /// serialised size.
    pub bytes: u64,
    /// Messages delivered per round.
    pub messages_per_round: Vec<u64>,
    /// Payload bytes delivered per round.
    pub bytes_per_round: Vec<u64>,
    /// Unique view nodes interned by a flat (hash-consed) run; 0 for
    /// runs that never built a view arena.
    pub interned_nodes: u64,
    /// Deduped arena footprint in bytes (each interned node once); the
    /// logical payload volume stays in `bytes`. 0 without an arena.
    pub arena_bytes: u64,
    /// Largest arena footprint held at any point of the run (equals
    /// `arena_bytes` for a single monotonically-growing gather).
    pub peak_arena_bytes: u64,
}

impl RunStats {
    /// Largest per-round byte volume (the peak bandwidth a real network
    /// would need).
    pub fn peak_round_bytes(&self) -> u64 {
        self.bytes_per_round.iter().copied().max().unwrap_or(0)
    }

    /// Mean messages per round.
    pub fn mean_messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }

    /// How much smaller the deduped arena is than the logical payload
    /// volume: `bytes / arena_bytes`. Greater than 1 whenever subtrees
    /// were shared (any non-tree topology, or any re-sent view); 0 when
    /// the run kept no arena.
    pub fn dedup_ratio(&self) -> f64 {
        if self.arena_bytes == 0 {
            0.0
        } else {
            self.bytes as f64 / self.arena_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = RunStats {
            rounds: 2,
            messages: 10,
            bytes: 100,
            messages_per_round: vec![4, 6],
            bytes_per_round: vec![30, 70],
            ..RunStats::default()
        };
        assert_eq!(s.peak_round_bytes(), 70);
        assert_eq!(s.mean_messages_per_round(), 5.0);
        assert_eq!(s.dedup_ratio(), 0.0, "no arena, no ratio");
        let flat = RunStats {
            bytes: 100,
            arena_bytes: 40,
            ..RunStats::default()
        };
        assert_eq!(flat.dedup_ratio(), 2.5);
    }

    #[test]
    fn empty_run() {
        let s = RunStats::default();
        assert_eq!(s.peak_round_bytes(), 0);
        assert_eq!(s.mean_messages_per_round(), 0.0);
    }
}
