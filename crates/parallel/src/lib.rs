//! Deterministic fork-join helpers: an **order-preserving parallel
//! map** over a slice, built on `std::thread::scope`.
//!
//! No crate of the workspace uses it any more: an advice run is one
//! thread (`docs/adr/0032-one-thread-per-advice-run.md`). Its one user
//! is the `benchmark/` package, which names [`par_map`],
//! [`set_num_threads`] and [`num_threads`]; the crate goes with the next
//! change to that package.
//!
//! Determinism contract: `par_map(items, f)` returns exactly
//! `items.iter().map(f).collect()` — results land at the index of
//! their input, and any reduction the caller performs afterwards runs
//! sequentially in index order. As long as `f` itself is a pure
//! function of its input, parallel and sequential execution are
//! **bitwise identical**, floats included.
//!
//! Work distribution is dynamic: the caller and `threads − 1` scoped
//! helpers claim items one at a time from one shared cursor until none
//! is left, and each result is tagged with its item's index. So a map
//! of uneven items (one date column's gather beside a counted integer
//! column) keeps every thread busy, a fan-out spawns one thread fewer
//! than it uses, and the caller works instead of waiting in a join.
//!
//! There is no cutoff: any input of two or more items threads, so a
//! caller maps only work worth a spawn.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the worker-thread count at runtime (`0` clears the override).
/// `set_num_threads(1)` routes every `par_map` through the sequential
/// branch, which is how the equivalence suite compares the two paths
/// within one process.
pub fn set_num_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Number of worker threads `par_map` will use: the
/// [`set_num_threads`] override if set, else the `CHARLES_NUM_THREADS`
/// environment variable (0 or unset ⇒ all available cores); always at
/// least 1. The env/cores default is resolved once — the env lookup
/// takes the process-wide environment lock, which must stay off the
/// hot path.
pub fn num_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("CHARLES_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// Set while a thread works a `par_map` share: a helper for its
    /// whole life, the caller for the length of its own share. Nested
    /// `par_map` calls (e.g. HB-cuts seeding → resolving the seed's two
    /// selections) run sequentially instead of spawning
    /// threads-of-threads: only the outermost level parallelises, which
    /// bounds concurrency at [`num_threads`] and avoids paying thread
    /// spawn cost on short inner loops.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The caller's share of a map: `IN_WORKER` is set while it lasts and
/// cleared when it ends, by return or by unwind — a thread that catches
/// a panicking map and lives on must thread its next one.
struct CallerShare;

impl CallerShare {
    fn enter() -> CallerShare {
        IN_WORKER.with(|w| w.set(true));
        CallerShare
    }
}

impl Drop for CallerShare {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

/// Order-preserving parallel map: equivalent to
/// `items.iter().map(f).collect()`, computed on up to [`num_threads`]
/// threads — the caller and up to `num_threads() − 1` helpers it
/// spawns, each claiming the next unclaimed item until none is left.
/// Panics in `f` propagate to the caller once every helper has joined.
/// Calls nested inside a share run sequentially (outermost-level
/// parallelism only).
///
/// Helpers are spawned per call (no pool), so this is meant for coarse
/// units of work — median scans, segment selections, whole advisor
/// restarts — where per-item cost dwarfs the ~tens-of-µs spawn cost.
/// Any input of two or more items threads, so *long* inputs of µs-scale
/// items should not come here (the HB-cuts INDEP frontier is a plain
/// loop).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Nested calls short-circuit before touching num_threads().
    if items.len() <= 1 || IN_WORKER.with(|w| w.get()) {
        return items.iter().map(f).collect();
    }
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // Every thread claims the next index from one cursor and keeps its
    // results tagged by index; placing them by tag restores input order.
    // The cursor only hands out indices (`Relaxed`): results reach the
    // caller through the joins.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut place = |done: Vec<(usize, U)>| {
        for (i, out) in done {
            slots[i] = Some(out);
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    claim()
                })
            })
            .collect();
        // A panic here unwinds out of the scope, which joins every
        // helper before it lets the panic go on.
        let mine = {
            let _share = CallerShare::enter();
            claim()
        };
        place(mine);
        for helper in helpers {
            match helper.join() {
                Ok(done) => place(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|out| out.expect("every index is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_num_threads` is process-global and `#[test]` fns run
    /// concurrently: every test that overrides it takes this lock so
    /// the override can't bleed across tests.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(threads);
        let out = f();
        set_num_threads(0);
        out
    }

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let par = par_map(&items, |&x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_preserves_order_with_floats() {
        let items: Vec<f64> = (0..777).map(|i| i as f64 * 0.1).collect();
        let seq: Vec<f64> = items.iter().map(|&x| (x.sin() * 1e6).ln_1p()).collect();
        let par = par_map(&items, |&x| (x.sin() * 1e6).ln_1p());
        // Bitwise equality, not approximate equality.
        let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, par_bits);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn nested_par_map_stays_sequential() {
        // The inner map must not spawn threads-of-threads; it still
        // computes the right answer in order. Force >1 worker so the
        // outer map actually threads even on single-core machines. The
        // caller's own share nests too.
        let got = with_threads(4, || {
            let outer: Vec<u64> = (0..8).collect();
            par_map(&outer, |&x| {
                let inner: Vec<u64> = (0..4).collect();
                let inner_ids = par_map(&inner, |_| std::thread::current().id());
                // All inner work ran on this thread.
                assert!(inner_ids
                    .iter()
                    .all(|&id| id == std::thread::current().id()));
                x * 10
            })
        });
        assert_eq!(got, (0..8).map(|x| x * 10).collect::<Vec<_>>());
    }

    /// Maps `n` items, each of which waits (up to five seconds) until
    /// every item has started, and returns the ids of the threads that
    /// ran them: distinct ids only if the items really ran at once. A
    /// map that stays on one thread times out instead of hanging.
    fn rendezvous_ids(n: usize) -> Vec<std::thread::ThreadId> {
        let started = AtomicUsize::new(0);
        let items: Vec<usize> = (0..n).collect();
        par_map(&items, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < n && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            std::thread::current().id()
        })
    }

    #[test]
    fn a_two_item_input_threads() {
        // No item-count cutoff: two items are two threads, the caller
        // working one of them.
        let ids = with_threads(2, || rendezvous_ids(2));
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn uneven_items_come_back_in_input_order() {
        // One slow item among fast ones: whoever claims it, the others
        // drain the rest, and every result lands at its own index.
        let items: Vec<u64> = (0..40).collect();
        let got = with_threads(3, || {
            par_map(&items, |&x| {
                let ms = if x == 0 { 40 } else { x % 3 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                (x, x * x)
            })
        });
        assert_eq!(got, items.iter().map(|&x| (x, x * x)).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_in_the_callers_share_resumes_after_the_helpers_join() {
        let caller = std::thread::current().id();
        let caller_claimed = std::sync::atomic::AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let items: Vec<u64> = (0..6).collect();
        let outcome = with_threads(2, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map(&items, |_| {
                    if std::thread::current().id() == caller {
                        caller_claimed.store(true, Ordering::SeqCst);
                        panic!("the caller's item blows up");
                    }
                    // The helper holds one item at a time: it cannot
                    // claim them all before the caller claims one.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    while !caller_claimed.load(Ordering::SeqCst)
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }))
        });
        let payload = outcome.expect_err("the caller's panic propagates");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the caller's item blows up")
        );
        // The caller claimed exactly one item and died on it; the helper
        // worked off the other five before the panic went on.
        assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);

        // And the thread is no worker now: its next map threads.
        let ids = with_threads(2, || rendezvous_ids(2));
        assert_ne!(ids[0], ids[1]);
    }
}
