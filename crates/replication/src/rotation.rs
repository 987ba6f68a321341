//! Least-recently-served rotation: how the [`crate::ReplicaGroup`] picks
//! among the replicas that may serve a spread read.

use std::collections::HashMap;

/// Spreads reads over changing candidate sets: each pick goes to the
/// candidate served longest ago (the first listed, on a tie).
///
/// Unlike a `cursor % len` round-robin, this stays balanced when the
/// candidate set shrinks, grows, or interleaves with differently filtered
/// sets. A cursor shared by RYW reads whose fence admits `{leader, 20}` and
/// Eventual reads over `{leader, 20, 30}`, interleaved 1:1, sends every RYW
/// read to the leader and every Eventual read to 20; least-recently-served
/// sends each read to whichever candidate the other traffic is not loading.
#[derive(Debug, Default)]
pub struct Rotation {
    clock: u64,
    last_served: HashMap<u32, u64>,
}

impl Rotation {
    /// The least recently served of `candidates`, now marked served;
    /// `None` when there are none.
    pub fn pick(&mut self, candidates: impl IntoIterator<Item = u32>) -> Option<u32> {
        let id = candidates
            .into_iter()
            .min_by_key(|id| self.last_served.get(id).copied().unwrap_or(0))?;
        self.clock += 1;
        self.last_served.insert(id, self.clock);
        Some(id)
    }
}
