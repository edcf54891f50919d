//! Parallelism helpers: intra-worker chunks and the persistent worker team.
//!
//! The paper's workers each drive a pool of threads performing "parallel
//! vertex-centric processing" (§IV-C, Fig. 4b varies this pool from 1 to 32
//! cores). Kernels use [`parallel_chunks`] to split their master list into
//! contiguous chunks processed on separate threads; each chunk returns a
//! buffered result the kernel then commits through the single-threaded
//! [`crate::WorkerCtx`] — keeping update application race-free without
//! atomics, which is exactly the discipline FLASH imposes on distributed
//! updates (reduce functions instead of compare-and-swap).
//!
//! One level up, the cluster runs its logical workers on a persistent
//! `Team`: each superstep phase (compute, upd-round bucketing, the
//! mirror-sync scan) hands one task per worker to helper threads that stay
//! parked between phases, instead of spawning a thread per worker.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Maps contiguous chunks of `items` on up to `threads` threads, returning
/// the per-chunk outputs in order. With `threads <= 1` (or one-element
/// input) it degrades to a plain sequential call, avoiding thread overhead.
pub fn parallel_chunks<T: Sync, Out: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> Out + Sync,
) -> Vec<Out> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items.chunks(chunk).map(|c| s.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    })
}

/// A persistent team of helper threads that runs one task per logical
/// worker at every superstep phase (DESIGN.md §11).
///
/// The team keeps `m − 1` helpers parked on a condition variable between
/// phases; the calling thread runs task 0 itself, so a phase over `m`
/// workers costs one handoff instead of `m` thread spawns and joins.
/// Helpers are spawned lazily, the first time a phase needs them, and
/// live until the team is dropped, which joins them.
///
/// **Handoff.** [`Team::run`] publishes the phase's job under a new
/// *generation* number and wakes the helpers; helper `i` runs task `i + 1`
/// of that generation and reports done. The caller runs task 0, then waits
/// until every helper has reported before it returns or re-raises a
/// panic. Outputs come back in ascending task order, so a caller that
/// merges them in output order reproduces a single thread walking the
/// workers front to back.
pub(crate) struct Team {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// Helper threads spawned over the team's lifetime.
    spawned: usize,
}

/// The job of one generation: runs task `i` when called with `i`.
type Job = &'static (dyn Fn(usize) + Sync);

struct Shared {
    handoff: Mutex<Handoff>,
    /// Signalled when a new generation is published or the team shuts down.
    start: Condvar,
    /// Signalled when the last helper of a generation reports done.
    done: Condvar,
}

#[derive(Default)]
struct Handoff {
    generation: u64,
    /// The current generation's job; `None` outside [`Team::run`].
    job: Option<Job>,
    /// Tasks in the current generation, task 0 (the caller's) included.
    tasks: usize,
    /// Helpers of the current generation that have not reported done.
    running: usize,
    /// The lowest-numbered helper task that panicked, with its payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

fn lock(m: &Mutex<Handoff>) -> MutexGuard<'_, Handoff> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Team {
    /// A team with no helpers yet.
    pub(crate) fn new() -> Team {
        Team {
            shared: Arc::new(Shared {
                handoff: Mutex::new(Handoff::default()),
                start: Condvar::new(),
                done: Condvar::new(),
            }),
            helpers: Vec::new(),
            spawned: 0,
        }
    }

    /// Helper threads spawned over the team's lifetime.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.spawned
    }

    /// Runs `f(i, item)` for the `i`-th item and returns the outputs in
    /// item order.
    ///
    /// With `parallel`, item 0 runs on the calling thread and item `i` on
    /// helper `i − 1`; otherwise, or with fewer than two items, every item
    /// runs on the calling thread in order and no helper is touched. A
    /// panicking task does not cut the phase short: the panic is re-raised
    /// on the caller once every task has finished, task 0's first, else
    /// the lowest-numbered helper's.
    pub(crate) fn run<T: Send, Out: Send>(
        &mut self,
        parallel: bool,
        items: impl ExactSizeIterator<Item = T>,
        f: impl Fn(usize, T) -> Out + Sync,
    ) -> Vec<Out> {
        if !parallel || items.len() < 2 {
            return items.enumerate().map(|(i, item)| f(i, item)).collect();
        }
        // One cell per task: its input until the task takes it, then its
        // output. Each cell is touched only by its own task while the
        // phase runs, and never locked across `f`, so the locks are
        // neither contended nor poisoned.
        let cells: Vec<Mutex<(Option<T>, Option<Out>)>> =
            items.map(|item| Mutex::new((Some(item), None))).collect();
        let cell = |i: usize| cells[i].lock().unwrap_or_else(PoisonError::into_inner);
        self.dispatch(cells.len(), &|i| {
            let item = cell(i).0.take();
            if let Some(item) = item {
                let out = f(i, item);
                cell(i).1 = Some(out);
            }
        });
        cells
            .into_iter()
            .filter_map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner).1)
            .collect()
    }

    /// Runs `job(0)` on the calling thread and `job(i)` on helper `i − 1`
    /// for every `i < tasks`, returning once all of them have finished.
    fn dispatch(&mut self, tasks: usize, job: &(dyn Fn(usize) + Sync)) {
        while self.helpers.len() + 1 < tasks {
            let shared = Arc::clone(&self.shared);
            let task = self.helpers.len() + 1;
            self.helpers.push(
                std::thread::Builder::new()
                    .name(format!("flash-worker-{task}"))
                    .spawn(move || helper_loop(&shared, task))
                    .expect("failed to spawn a worker-team helper thread"),
            );
            self.spawned += 1;
        }
        // SAFETY: `job` borrows the caller's stack only for this call, and
        // the `'static` copy never outlives it. Helpers read `job` out of
        // the handoff only for the generation published below, and each
        // of them calls it at most once, inside `catch_unwind`, before
        // decrementing `running`. This function neither returns nor
        // unwinds until `running` is back to 0 and `job` is cleared:
        // task 0 runs inside `catch_unwind`, the wait below cannot panic
        // (poisoned locks are entered, not unwrapped), and a caught panic
        // is re-raised only after the wait. So every call through the
        // erased reference happens while the borrow is still live.
        let job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Job>(job) };
        {
            let mut h = lock(&self.shared.handoff);
            h.generation += 1;
            h.job = Some(job);
            h.tasks = tasks;
            h.running = tasks - 1;
            h.panic = None;
        }
        self.shared.start.notify_all();
        let own = std::panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        let mut h = lock(&self.shared.handoff);
        while h.running > 0 {
            h = self
                .shared
                .done
                .wait(h)
                .unwrap_or_else(PoisonError::into_inner);
        }
        h.job = None;
        let helper_panic = h.panic.take();
        drop(h);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if let Some((_, payload)) = helper_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A helper's life: park until a generation that includes `task` is
/// published, run the task, report done, repeat until shutdown.
fn helper_loop(shared: &Shared, task: usize) {
    let mut seen = 0;
    loop {
        let job = {
            let mut h = lock(&shared.handoff);
            while !h.shutdown && h.generation == seen {
                h = shared.start.wait(h).unwrap_or_else(PoisonError::into_inner);
            }
            if h.shutdown {
                return;
            }
            seen = h.generation;
            match h.job {
                Some(job) if task < h.tasks => job,
                _ => continue,
            }
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| job(task)));
        let mut h = lock(&shared.handoff);
        if let Err(payload) = result {
            if h.panic.as_ref().is_none_or(|(t, _)| task < *t) {
                h.panic = Some((task, payload));
            }
        }
        h.running -= 1;
        if h.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for Team {
    /// Wakes every helper with the shutdown flag set and joins it.
    fn drop(&mut self) {
        lock(&self.shared.handoff).shutdown = true;
        self.shared.start.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every task panic, so a join error is
            // impossible; there is nothing to do with one anyway.
            let _ = helper.join();
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("helpers", &self.helpers.len())
            .field("spawned", &self.spawned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_in_order() {
        let items: Vec<u32> = (0..101).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let outs = parallel_chunks(&items, threads, |c| c.to_vec());
            let flat: Vec<u32> = outs.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn sums_match_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let outs = parallel_chunks(&items, 4, |c| c.iter().sum::<u64>());
        assert_eq!(outs.iter().sum::<u64>(), 499_500);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = vec![];
        let outs = parallel_chunks(&items, 4, |c| c.len());
        assert_eq!(outs, vec![0]);
    }

    #[test]
    fn team_outputs_come_back_in_task_order() {
        let mut team = Team::new();
        for n in [0usize, 1, 2, 3, 8] {
            for parallel in [false, true] {
                let outs = team.run(parallel, 0..n, |i, item| {
                    assert_eq!(i, item, "task i receives item i");
                    item * 10
                });
                assert_eq!(outs, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
        // Helpers grow to the largest phase seen and are then reused.
        assert_eq!(team.spawned(), 7);
    }

    #[test]
    fn team_hands_each_task_exclusive_mutable_items() {
        let mut team = Team::new();
        let mut slots = vec![0u64; 4];
        for round in 1..=100u64 {
            team.run(true, slots.iter_mut(), |i, slot| *slot += round * i as u64);
        }
        assert_eq!(slots, vec![0, 5050, 10100, 15150]);
        assert_eq!(team.spawned(), 3, "helpers persist across phases");
    }

    #[test]
    fn serial_empty_and_single_task_phases_spawn_nothing() {
        let mut team = Team::new();
        let outs = team.run(false, 0..4, |i, _| i);
        assert_eq!(outs, vec![0, 1, 2, 3]);
        assert!(team.run(true, 0..0, |i, _| i).is_empty());
        assert_eq!(
            team.run(true, 0..1, |i, _| i),
            vec![0],
            "one task runs inline"
        );
        assert_eq!(team.spawned(), 0);
    }

    /// The determinism contract the upd-round bucketing relies on:
    /// per-task bucket sets merged in task (= ascending worker) order
    /// reproduce the single-threaded bucket order bit for bit.
    #[test]
    fn team_merged_bucket_order_is_deterministic() {
        const BUCKETS: usize = 7;
        const WORKERS: usize = 5;
        let pending = |w: usize| (0..500u32).filter(move |v| *v as usize % WORKERS == w);
        let serial: Vec<Vec<(usize, u32)>> = {
            let mut buckets = vec![Vec::new(); BUCKETS];
            for w in 0..WORKERS {
                for v in pending(w) {
                    buckets[(v as usize * 31) % BUCKETS].push((w, v));
                }
            }
            buckets
        };
        let mut team = Team::new();
        for parallel in [false, true] {
            let mut sets: Vec<Vec<Vec<(usize, u32)>>> = vec![Vec::new(); WORKERS];
            team.run(parallel, sets.iter_mut(), |w, set| {
                set.resize_with(BUCKETS, Vec::new);
                for v in pending(w) {
                    set[(v as usize * 31) % BUCKETS].push((w, v));
                }
            });
            let mut merged = vec![Vec::new(); BUCKETS];
            for set in sets.iter_mut() {
                for (b, local) in set.iter_mut().enumerate() {
                    merged[b].append(local);
                }
            }
            assert_eq!(merged, serial, "parallel={parallel}");
        }
    }
}
