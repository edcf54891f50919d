//! Per-worker vertex state: the current/next split of §IV-A.

use crate::par::Team;
use crate::transport::RoundBatches;
use crate::VertexData;
use flash_graph::VertexId;
use std::collections::HashMap;

/// The state a single worker holds.
///
/// `current` is a full replica of the vertex-state array: slots the worker
/// owns are *masters* (authoritative), the rest are *mirrors* kept
/// consistent by explicit synchronization at barriers. Per the paper,
/// "the current states of a vertex are ensured to be consistent on all
/// workers who access it in the current superstep", while updates go to
/// next-state structures invisible until the barrier:
///
/// * `pending` — reduce-accumulated temporary values from
///   `put` calls (the mirror-side combining of `EDGEMAPSPARSE`);
/// * `direct` — whole-value master writes from `VERTEXMAP`
///   and `EDGEMAPDENSE`, which never need a reduce function.
#[derive(Debug)]
pub struct WorkerState<V: VertexData> {
    pub(crate) current: Vec<V>,
    pub(crate) pending: HashMap<VertexId, V>,
    pub(crate) direct: Vec<(VertexId, V)>,
    /// `put` operations staged this superstep (counts every call, including
    /// ones merged into an existing temporary — the true op count, which
    /// `pending.len()` under-reports). Taken and reset at each barrier for
    /// `worker_phase` trace events.
    pub(crate) op_puts: u64,
    /// `write_master` operations staged this superstep; reset per barrier.
    pub(crate) op_writes: u64,
}

impl<V: VertexData> WorkerState<V> {
    /// Creates a replica initialized by `init` for vertices `0..n`.
    pub(crate) fn new(n: usize, init: &impl Fn(VertexId) -> V) -> Self {
        WorkerState {
            current: (0..n as VertexId).map(init).collect(),
            pending: HashMap::new(),
            direct: Vec::new(),
            op_puts: 0,
            op_writes: 0,
        }
    }

    /// Current (consistent) value of `v`.
    #[inline]
    pub fn current(&self, v: VertexId) -> &V {
        &self.current[v as usize]
    }

    /// `true` if no next-state writes are staged.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.pending.is_empty() && self.direct.is_empty()
    }

    /// Clones the full replica for a checkpoint. Only `current` needs
    /// capturing: checkpoints are taken at superstep boundaries, where the
    /// next-state structures are empty by construction.
    pub(crate) fn snapshot(&self) -> Vec<V> {
        debug_assert!(
            self.pending.is_empty() && self.direct.is_empty(),
            "checkpoints must be taken at a barrier, with nothing staged"
        );
        self.current.clone()
    }

    /// Overwrites the replica from a snapshot and discards everything a
    /// failed attempt staged (next-state writes and op counters).
    pub(crate) fn restore(&mut self, snapshot: &[V]) {
        debug_assert_eq!(self.current.len(), snapshot.len());
        self.current.clear();
        self.current.extend_from_slice(snapshot);
        self.discard_staged();
    }

    /// Discards staged next-state writes and op counters — everything a
    /// faulted superstep attempt may have produced before the barrier.
    pub(crate) fn discard_staged(&mut self) {
        self.pending.clear();
        self.direct.clear();
        self.op_puts = 0;
        self.op_writes = 0;
    }
}

/// Pooled per-superstep scratch buffers, owned by the cluster and reused
/// across supersteps under [`HotPath::PooledParallel`]
/// (crate::config::HotPath): every buffer is cleared — never dropped — at
/// reuse, so steady-state supersteps allocate nothing on the hot path
/// (DESIGN.md §11).
///
/// Invariant: every buffer is returned to the pool *empty* (the take
/// methods clear defensively anyway), so a pooled superstep observes
/// exactly the state a fresh allocation would provide.
#[derive(Debug)]
pub(crate) struct StepBuffers<V: VertexData> {
    /// Per-owner routing buckets of the upd round (`step_reduce`).
    buckets: Vec<Vec<(VertexId, V)>>,
    /// Per-worker bucket sets of the bucketing pass; slot `w` belongs to
    /// worker `w`'s team task.
    pub(crate) bucket_sets: Vec<Vec<Vec<(VertexId, V)>>>,
    /// Per-owner updated-master lists handed out through `StepOutput` and
    /// returned by `Cluster::recycle_updated`.
    updated: Vec<Vec<VertexId>>,
    /// Scratch for `PartitionMap::necessary_mirror_hosts` in the sync scan.
    pub(crate) host_buf: Vec<u16>,
    /// Cross-host batch map of the upd round.
    upd_batches: RoundBatches,
    /// Cross-host batch map of the sync round.
    sync_batches: RoundBatches,
    /// The persistent worker team every parallel superstep phase runs on.
    /// It lives here, not in the cluster, so a pooled buffer set carries
    /// its parked helpers from one serving query to the next.
    pub(crate) team: Team,
}

impl<V: VertexData> StepBuffers<V> {
    pub(crate) fn new() -> Self {
        StepBuffers {
            buckets: Vec::new(),
            bucket_sets: Vec::new(),
            updated: Vec::new(),
            host_buf: Vec::new(),
            upd_batches: RoundBatches::new(),
            sync_batches: RoundBatches::new(),
            team: Team::new(),
        }
    }

    /// Takes the pooled bucket vector, cleared and sized to `m` owners.
    pub(crate) fn take_buckets(&mut self, m: usize) -> Vec<Vec<(VertexId, V)>> {
        Self::take_lists(&mut self.buckets, m)
    }

    /// Returns the bucket vector after the reduce round drained it.
    pub(crate) fn put_buckets(&mut self, buckets: Vec<Vec<(VertexId, V)>>) {
        self.buckets = buckets;
    }

    /// Takes the pooled updated-master lists, cleared and sized to `m`.
    pub(crate) fn take_updated(&mut self, m: usize) -> Vec<Vec<VertexId>> {
        Self::take_lists(&mut self.updated, m)
    }

    /// Accepts a consumed `StepOutput::updated` buffer back into the pool.
    pub(crate) fn recycle_updated(&mut self, updated: Vec<Vec<VertexId>>) {
        self.updated = updated;
    }

    /// Takes the pooled upd-round batch map, cleared.
    pub(crate) fn take_upd_batches(&mut self) -> RoundBatches {
        let mut b = std::mem::take(&mut self.upd_batches);
        b.clear();
        b
    }

    /// Returns the upd-round batch map after delivery.
    pub(crate) fn put_upd_batches(&mut self, batches: RoundBatches) {
        self.upd_batches = batches;
    }

    /// Takes the pooled sync-round batch map, cleared.
    pub(crate) fn take_sync_batches(&mut self) -> RoundBatches {
        let mut b = std::mem::take(&mut self.sync_batches);
        b.clear();
        b
    }

    /// Returns the sync-round batch map after delivery.
    pub(crate) fn put_sync_batches(&mut self, batches: RoundBatches) {
        self.sync_batches = batches;
    }

    fn take_lists<T>(pool: &mut Vec<Vec<T>>, m: usize) -> Vec<Vec<T>> {
        let mut lists = std::mem::take(pool);
        for l in lists.iter_mut() {
            l.clear();
        }
        if lists.len() != m {
            lists.resize_with(m, Vec::new);
        }
        lists
    }

    /// Clears every pooled buffer in place — capacity survives, contents
    /// do not — returning the pool to the state a fresh construction
    /// provides. Called when a buffer set is checked back into a shared
    /// [`BufferPool`](crate::session::BufferPool) so the next run starts
    /// from a pristine pool even if the previous run left residue (e.g.
    /// an error path that skipped a `recycle_updated`).
    pub(crate) fn reset(&mut self) {
        for l in self.buckets.iter_mut() {
            l.clear();
        }
        for set in self.bucket_sets.iter_mut() {
            for l in set.iter_mut() {
                l.clear();
            }
        }
        for l in self.updated.iter_mut() {
            l.clear();
        }
        self.host_buf.clear();
        self.upd_batches.clear();
        self.sync_batches.clear();
    }

    /// `true` when every pooled buffer is empty — the invariant each run
    /// must observe on its first superstep, asserted at pool checkin.
    pub(crate) fn is_pristine(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
            && self
                .bucket_sets
                .iter()
                .all(|set| set.iter().all(Vec::is_empty))
            && self.updated.iter().all(Vec::is_empty)
            && self.host_buf.is_empty()
            && self.upd_batches.is_empty()
            && self.sync_batches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct D {
        v: u32,
    }
    crate::full_sync!(D);

    #[test]
    fn initializes_by_closure() {
        let st = WorkerState::new(4, &|v| D { v: v * 10 });
        assert_eq!(st.current(2), &D { v: 20 });
        assert!(st.is_clean());
    }

    #[test]
    fn step_buffers_hand_out_cleared_reused_allocations() {
        let mut b: StepBuffers<D> = StepBuffers::new();
        let mut buckets = b.take_buckets(3);
        assert_eq!(buckets.len(), 3);
        buckets[1].push((7, D { v: 1 }));
        let caps: Vec<usize> = buckets.iter().map(Vec::capacity).collect();
        b.put_buckets(buckets);
        let again = b.take_buckets(3);
        assert!(again.iter().all(Vec::is_empty), "cleared on take");
        assert!(again[1].capacity() >= caps[1], "allocation reused");

        let mut upd = b.take_updated(2);
        upd[0].push(5);
        b.recycle_updated(upd);
        assert!(b.take_updated(2).iter().all(Vec::is_empty));

        let mut batches = b.take_upd_batches();
        batches.insert((0, 1), (2, 64));
        b.put_upd_batches(batches);
        assert!(b.take_upd_batches().is_empty(), "cleared on take");
        assert!(b.take_sync_batches().is_empty());
    }

    #[test]
    fn reset_restores_pristine_state_without_dropping_capacity() {
        let mut b: StepBuffers<D> = StepBuffers::new();
        assert!(b.is_pristine(), "fresh pool is pristine");
        let mut buckets = b.take_buckets(3);
        buckets[0].push((1, D { v: 9 }));
        b.put_buckets(buckets);
        let mut upd = b.take_updated(2);
        upd[1].push(4);
        b.recycle_updated(upd);
        b.host_buf.extend_from_slice(&[1, 2, 3]);
        b.bucket_sets.push(vec![vec![(0, D { v: 1 })]]);
        let mut batches = b.take_upd_batches();
        batches.insert((0, 1), (2, 64));
        b.put_upd_batches(batches);
        assert!(!b.is_pristine(), "residue is visible");
        b.reset();
        assert!(b.is_pristine(), "reset clears every buffer");
        // Capacity survived the reset: the next take reuses allocations.
        assert!(b.take_buckets(3)[0].capacity() > 0);
    }

    #[test]
    fn staged_writes_mark_dirty() {
        let mut st = WorkerState::new(2, &|_| D::default());
        st.direct.push((0, D { v: 1 }));
        assert!(!st.is_clean());
        st.direct.clear();
        st.pending.insert(1, D { v: 2 });
        assert!(!st.is_clean());
    }
}
