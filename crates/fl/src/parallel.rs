//! Parallel execution of independent client updates.
//!
//! Within a federated round the selected clients are independent, so their
//! local updates run on `std::thread` scoped threads. The maps preserve
//! input order in their output, which the aggregation code relies on.
//!
//! # One queue, two stages
//!
//! Each item is two tasks: a *prep* that only reads the item (a client's
//! two-view renders, which depend on its data and RNG but never on the
//! model) and a *run* that consumes the item and the prep's output (the
//! local SGD steps). All tasks sit in one queue in a fixed order, and every
//! worker pulls the next task from a shared counter until the queue is
//! empty:
//!
//! ```text
//! P0 P1 .. P(w-1)  R0 P(w)  R1 P(w+1)  R2 ..  R(n-1)      (w = workers)
//! ```
//!
//! so item `i`'s prep is queued `w` slots ahead of its run. A run waits
//! only on its own item's prep, which was claimed before it and is either
//! done or in progress on another worker; nothing else blocks. A worker
//! that would otherwise sit idle at the end of a round renders the next
//! client's views instead, and uneven clients (Dirichlet partitions give
//! different pool sizes) spread over the workers as they finish rather
//! than in fixed contiguous chunks.
//!
//! # Memory bound
//!
//! When item `i + w`'s prep is claimed, runs `0..=i` have been claimed, so
//! at most `w` prepared items wait for their run and at most `w - 1` more
//! are held by runs in flight: no more than `2w - 1` prep outputs are alive
//! at once, whatever the cohort size. Each is dropped when its run returns.
//!
//! # Spans and timing
//!
//! Each run executes under its own `client` span, on whichever thread ran
//! it; a prep carries whatever span its closure opens (the SSL loops'
//! render opens `render_views`). While the calling thread spawns the
//! workers and blocks on the join it sits in a `wait_workers` span, so the
//! caller's own span (`round`, `personalize`) is not charged for time the
//! workers spent; the sequential fast path (one worker, or at most one
//! item) drains the queue on the calling thread and opens no such span.
//! An item's reported wall clock is its prep plus its run, which is what
//! the client cost, wherever the two ran.
//!
//! # Panics
//!
//! Every prep and run is wrapped in `catch_unwind`, so a panic never leaves
//! a run waiting on a prep that will not finish. A panicking prep fails its
//! item without running it. [`parallel_map`] re-raises the first panic in
//! input order once every item is done; [`parallel_prep_map`] and
//! [`parallel_map_resilient`] report it as an `Err` in that item's slot.
//!
//! # Workspaces are per worker
//!
//! The local-update closures each create their own
//! [`calibre_tensor::StepArena`], so every worker thread owns a private
//! buffer pool — recycled tape storage never crosses threads and needs no
//! locking. The only shared execution state is the process-wide backend
//! selection (`calibre_tensor::backend::global_backend`), which workers read
//! through an `Arc` at workspace creation.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
// analyze:allow(wallclock) -- Duration/Instant feed per-client telemetry
// only; scheduling and aggregation stay clock-free.
use std::time::{Duration, Instant};

/// Maps `f` over `items` in parallel, preserving order.
///
/// The closure receives the item by reference and must be `Sync`; results
/// are collected in input order. Uses up to `available_parallelism` threads
/// (capped by the item count); falls back to sequential execution for a
/// single item. A panic in `f` is re-raised on the calling thread once
/// every other item has finished.
///
/// # Examples
///
/// ```
/// use calibre_fl::parallel::parallel_map;
///
/// let squares = parallel_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    prep_run(items.iter().collect(), |_| (), |item, ()| f(item))
        .into_iter()
        .map(|(out, _)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// A panic caught from one client's worker closure.
///
/// Produced by [`parallel_map_resilient`] and [`parallel_prep_map`]; the
/// payload is stringified so it can cross threads and land in telemetry
/// without generic baggage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPanic {
    /// The panic payload, if it was a `&str` or `String` (the usual case);
    /// `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl std::fmt::Display for ClientPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client worker panicked: {}", self.message)
    }
}

impl std::error::Error for ClientPanic {}

fn panic_message(payload: Payload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Like [`parallel_map`], but consumes the items — each client's
/// persistent state moves into its update closure and back out through the
/// result — and a panic in one item's closure is caught (`catch_unwind`
/// around the worker body) and surfaces as an `Err` in that item's slot
/// instead of aborting the whole round.
///
/// This is [`parallel_prep_map`] with a unit prep. Results stay in input
/// order; the per-item wall clock covers the failed attempt too (crash time
/// is still time spent).
///
/// The closure must be idempotent-safe to lose: when it panics, the moved
/// item is gone with it — retry logic has to rebuild state upstream.
///
/// # Examples
///
/// ```
/// use calibre_fl::parallel::parallel_map_resilient;
///
/// let out = parallel_map_resilient(vec![1, 2, 3], |x| {
///     if x == 2 { panic!("boom") }
///     x * 10
/// });
/// assert_eq!(out[0].0.as_ref().unwrap(), &10);
/// assert!(out[1].0.is_err());
/// assert_eq!(out[2].0.as_ref().unwrap(), &30);
/// ```
pub fn parallel_map_resilient<T, R, F>(
    items: Vec<T>,
    f: F,
) -> Vec<(Result<R, ClientPanic>, Duration)>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_prep_map(items, |_| (), |item, ()| f(item))
}

/// Runs `prep` then `run` for every item on the worker queue (see the
/// module docs), catching panics per item. `prep` reads the item and may
/// run on any worker, ahead of time; `run` consumes the item and its own
/// prep output. Results come back in input order, each with the wall clock
/// of its prep plus its run.
///
/// This is the execution substrate of the resilient round executor: a
/// client crashing mid-update must cost exactly one cohort slot, never the
/// run. A panic in an item's prep fails that item without running it; a
/// panic in its run loses the item (moved in) with it.
///
/// # Examples
///
/// ```
/// use calibre_fl::parallel::parallel_prep_map;
///
/// let out = parallel_prep_map(vec![1, 2, 3], |&x| x * 10, |x, ten_x| x + ten_x);
/// let sums: Vec<i32> = out.into_iter().map(|(r, _)| r.unwrap()).collect();
/// assert_eq!(sums, vec![11, 22, 33]);
/// ```
pub fn parallel_prep_map<T, V, R, P, F>(
    items: Vec<T>,
    prep: P,
    run: F,
) -> Vec<(Result<R, ClientPanic>, Duration)>
where
    T: Send,
    V: Send,
    R: Send,
    P: Fn(&T) -> V + Sync,
    F: Fn(T, V) -> R + Sync,
{
    prep_run(items, prep, run)
        .into_iter()
        .map(|(out, wall)| {
            let out = out.map_err(|payload| ClientPanic {
                message: panic_message(payload),
            });
            (out, wall)
        })
        .collect()
}

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// A stage's output or the panic it raised, and how long it took.
type Timed<X> = (Result<X, Payload>, Duration);

/// One entry of the worker queue.
#[derive(Debug, Clone, Copy)]
enum Task {
    Prep(usize),
    Run(usize),
}

/// The task order of `n` items on `workers` workers: the first `workers`
/// preps, then each run followed by the prep `workers` items after it.
fn task_order(n: usize, workers: usize) -> Vec<Task> {
    let ahead = workers.max(1);
    let mut tasks: Vec<Task> = (0..ahead.min(n)).map(Task::Prep).collect();
    for i in 0..n {
        tasks.push(Task::Run(i));
        if i + ahead < n {
            tasks.push(Task::Prep(i + ahead));
        }
    }
    tasks
}

/// The shared state every worker drains.
struct Queue<T, V> {
    tasks: Vec<Task>,
    next: AtomicUsize,
    /// Each item, read by its prep and taken by its run.
    items: Vec<Mutex<Option<T>>>,
    /// Finished preps not yet taken by their run.
    prepped: Mutex<Vec<Option<Timed<V>>>>,
    /// Signalled whenever a prep lands in `prepped`.
    ready: Condvar,
}

/// Locks `m`, recovering the data from a poisoned lock: every closure that
/// runs under one of the queue's locks is wrapped in `catch_unwind`, so a
/// poisoned lock holds consistent data.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The payload of a slot whose item the queue could not find — a broken
/// queue invariant, reported in that slot rather than by a panic.
fn lost(what: &'static str) -> Payload {
    Box::new(what)
}

impl<T, V> Queue<T, V> {
    fn new(items: Vec<T>, workers: usize) -> Self {
        let n = items.len();
        Queue {
            tasks: task_order(n, workers),
            next: AtomicUsize::new(0),
            items: items
                .into_iter()
                .map(|item| Mutex::new(Some(item)))
                .collect(),
            prepped: Mutex::new((0..n).map(|_| None).collect()),
            ready: Condvar::new(),
        }
    }

    /// Pulls tasks until the queue is empty; returns the runs this worker
    /// finished, tagged with their item index.
    fn drain<R>(
        &self,
        prep: &(impl Fn(&T) -> V + Sync),
        run: &(impl Fn(T, V) -> R + Sync),
    ) -> Vec<(usize, Timed<R>)> {
        let mut done = Vec::new();
        while let Some(&task) = self.tasks.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            match task {
                Task::Prep(i) => self.prep(i, prep),
                Task::Run(i) => done.push((i, self.run(i, run))),
            }
        }
        done
    }

    fn prep(&self, i: usize, prep: &impl Fn(&T) -> V) {
        let start = Instant::now(); // analyze:allow(wallclock) -- telemetry only
        let out = match self.items.get(i).map(lock).as_deref() {
            // AssertUnwindSafe: `prep` only reads the item and its captures
            // (`Fn` + `Sync`), so an unwind leaves nothing torn.
            Some(Some(item)) => catch_unwind(AssertUnwindSafe(|| prep(item))),
            _ => Err(lost("item missing before its prep")),
        };
        if let Some(slot) = lock(&self.prepped).get_mut(i) {
            *slot = Some((out, start.elapsed()));
        }
        self.ready.notify_all();
    }

    /// Blocks until item `i`'s prep has landed, then takes it.
    fn take_prepped(&self, i: usize) -> Timed<V> {
        let mut prepped = lock(&self.prepped);
        loop {
            match prepped.get_mut(i) {
                Some(slot) => {
                    if let Some(done) = slot.take() {
                        return done;
                    }
                }
                None => return (Err(lost("item out of range")), Duration::ZERO),
            }
            prepped = self
                .ready
                .wait(prepped)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn run<R>(&self, i: usize, run: &impl Fn(T, V) -> R) -> Timed<R> {
        let (prepped, prep_wall) = self.take_prepped(i);
        let item = self.items.get(i).and_then(|slot| lock(slot).take());
        let start = Instant::now(); // analyze:allow(wallclock) -- telemetry only
        let out = match (prepped, item) {
            (Ok(view), Some(item)) => {
                let _span = calibre_telemetry::span("client");
                // AssertUnwindSafe: the run owns `item` and `view` (moved
                // in, lost on panic) and its captures are read-only.
                catch_unwind(AssertUnwindSafe(|| run(item, view)))
            }
            (Err(payload), _) => Err(payload),
            (Ok(_), None) => Err(lost("item missing before its run")),
        };
        (out, prep_wall + start.elapsed())
    }
}

/// The worker map behind every public variant: one queue of prep and run
/// tasks drained by `worker_count` scoped threads (or by the calling thread
/// when one worker suffices), results in input order.
fn prep_run<T, V, R, P, F>(items: Vec<T>, prep: P, run: F) -> Vec<Timed<R>>
where
    T: Send,
    V: Send,
    R: Send,
    P: Fn(&T) -> V + Sync,
    F: Fn(T, V) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    let queue = Queue::new(items, workers);
    let drain = || queue.drain(&prep, &run);
    let finished = if workers <= 1 {
        vec![drain()]
    } else {
        // Spans the whole scope — spawning and the join — so the caller's
        // own span keeps only its own work, even when the workers take
        // every core and the caller is descheduled right after spawning.
        let _wait = calibre_telemetry::span("wait_workers");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect::<Vec<_>>()
        })
    };
    let mut slots: Vec<Option<Timed<R>>> = (0..n).map(|_| None).collect();
    for (i, done) in finished.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(done);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| (Err(lost("item never ran")), Duration::ZERO)))
        .collect()
}

/// Number of worker threads for `len` items: `available_parallelism` capped
/// by the item count. `available_parallelism` re-reads cgroup quota files
/// on Linux, so it is resolved once per process.
fn worker_count(len: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    });
    cores.min(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn counts(c: &[AtomicUsize]) -> Vec<usize> {
        c.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Whatever the per-item costs, every prep and every run happens
        // exactly once, each run sees its own prep's output, and results
        // come back in input order.
        #[test]
        fn queue_runs_each_stage_once_in_input_order(
            costs in prop::collection::vec((0u64..300, 0u64..300), 0..40),
        ) {
            let preps = counters(costs.len());
            let runs = counters(costs.len());
            let items: Vec<(usize, u64, u64)> =
                costs.iter().enumerate().map(|(i, &(p, r))| (i, p, r)).collect();
            let out = parallel_prep_map(
                items,
                |&(i, prep_us, _)| {
                    std::thread::sleep(Duration::from_micros(prep_us));
                    preps[i].fetch_add(1, Ordering::SeqCst);
                    i * 7 + 1
                },
                |(i, _, run_us), prepped| {
                    std::thread::sleep(Duration::from_micros(run_us));
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    (i, prepped)
                },
            );
            prop_assert_eq!(out.len(), costs.len());
            for (i, (result, _)) in out.into_iter().enumerate() {
                prop_assert_eq!(result.unwrap(), (i, i * 7 + 1));
            }
            prop_assert!(counts(&preps).iter().all(|&c| c == 1), "{:?}", counts(&preps));
            prop_assert!(counts(&runs).iter().all(|&c| c == 1), "{:?}", counts(&runs));
        }
    }

    #[test]
    fn task_order_queues_each_prep_workers_slots_ahead_of_its_run() {
        let order = task_order(5, 2);
        let names: Vec<String> = order
            .iter()
            .map(|t| match t {
                Task::Prep(i) => format!("P{i}"),
                Task::Run(i) => format!("R{i}"),
            })
            .collect();
        assert_eq!(
            names,
            ["P0", "P1", "R0", "P2", "R1", "P3", "R2", "P4", "R3", "R4"]
        );
        // One worker: strictly prep, run, prep, run.
        assert!(matches!(
            task_order(2, 1)[..],
            [Task::Prep(0), Task::Run(0), Task::Prep(1), Task::Run(1)]
        ));
        assert!(task_order(0, 4).is_empty());
        // More workers than items: every prep first.
        assert!(matches!(
            task_order(2, 8)[..],
            [Task::Prep(0), Task::Prep(1), Task::Run(0), Task::Run(1)]
        ));
    }

    #[test]
    fn each_run_receives_its_own_prep_even_when_preps_finish_out_of_order() {
        // Early preps are the slowest, so later preps land first.
        let items: Vec<u64> = (0..12).rev().collect();
        let out = parallel_prep_map(
            items,
            |&ms| {
                std::thread::sleep(Duration::from_millis(ms));
                format!("view-{ms}")
            },
            |ms, view| (ms, view),
        );
        for (i, (result, _)) in out.into_iter().enumerate() {
            let ms = 11 - i as u64;
            assert_eq!(result.unwrap(), (ms, format!("view-{ms}")));
        }
    }

    #[test]
    fn a_panicking_prep_fails_its_slot_without_running_it() {
        let runs = counters(9);
        let out = parallel_prep_map(
            (0..9usize).collect(),
            |&i| {
                if i == 4 {
                    panic!("prep failed on {i}");
                }
                i
            },
            |i, prepped| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                i + prepped
            },
        );
        for (i, (result, _)) in out.iter().enumerate() {
            if i == 4 {
                assert_eq!(result.as_ref().unwrap_err().message, "prep failed on 4");
            } else {
                assert_eq!(result.as_ref().unwrap(), &(2 * i));
            }
        }
        let ran = counts(&runs);
        assert_eq!(ran[4], 0, "the failed item's run is skipped");
        assert_eq!(ran.iter().sum::<usize>(), 8);
    }

    #[test]
    fn a_panicking_run_fails_only_its_slot() {
        let out = parallel_prep_map(
            (0..9usize).collect(),
            |&i| i,
            |i, _| {
                if i == 6 {
                    panic!("run failed on {i}");
                }
                i
            },
        );
        for (i, (result, _)) in out.iter().enumerate() {
            assert_eq!(result.is_err(), i == 6, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "plain map item 3")]
    fn plain_map_reraises_a_worker_panic() {
        let items: Vec<usize> = (0..8).collect();
        let _ = parallel_map(&items, |&i| {
            if i == 3 {
                panic!("plain map item {i}");
            }
            i
        });
    }

    #[test]
    fn wall_clock_covers_prep_and_run() {
        let out = parallel_prep_map(
            vec![(3u64, 4u64), (0, 0), (5, 1)],
            |&(prep_ms, _)| std::thread::sleep(Duration::from_millis(prep_ms)),
            |(_, run_ms), ()| std::thread::sleep(Duration::from_millis(run_ms)),
        );
        for ((prep_ms, run_ms), (_, wall)) in [(3u64, 4u64), (0, 0), (5, 1)].into_iter().zip(out) {
            assert!(wall >= Duration::from_millis(prep_ms + run_ms), "{wall:?}");
        }
    }

    #[test]
    fn worker_count_is_resolved_once_and_capped_by_items() {
        assert_eq!(worker_count(0), 0);
        assert_eq!(worker_count(1), 1);
        let all = worker_count(usize::MAX);
        assert!(all >= 1);
        assert_eq!(worker_count(usize::MAX), all);
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<usize> = parallel_map(&[] as &[usize], |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..37).collect();
        let _ = parallel_map(&items, |_| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(counter.load(Ordering::SeqCst), 37);
    }

    #[test]
    fn single_item_runs_sequentially() {
        let out = parallel_map(&[41usize], |&i| i + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn timed_variant_measures_each_item() {
        let items: Vec<u64> = vec![1, 5, 1, 5];
        let out = parallel_map_resilient(items, |ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        assert_eq!(out.len(), 4);
        for (ms, elapsed) in &out {
            let ms = ms.as_ref().unwrap();
            assert!(
                *elapsed >= Duration::from_millis(*ms),
                "item slept {ms}ms but measured {elapsed:?}"
            );
        }
        assert_eq!(out[1].0.as_ref().unwrap(), &5);
    }

    #[test]
    fn resilient_map_isolates_panics_to_their_slot() {
        let items: Vec<usize> = (0..20).collect();
        let out = parallel_map_resilient(items, |i| {
            if i % 7 == 3 {
                panic!("injected failure on {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 20);
        for (i, (result, _)) in out.iter().enumerate() {
            if i % 7 == 3 {
                let err = result.as_ref().unwrap_err();
                assert!(err.message.contains("injected failure"), "{err}");
            } else {
                assert_eq!(result.as_ref().unwrap(), &(i * 2));
            }
        }
    }

    #[test]
    fn resilient_map_matches_timed_map_when_nothing_panics() {
        let items: Vec<usize> = (0..13).collect();
        let ok: Vec<usize> = parallel_map_resilient(items, |i| i + 1)
            .into_iter()
            .map(|(r, _)| r.unwrap())
            .collect();
        assert_eq!(ok, (1..14).collect::<Vec<_>>());

        // Owned, non-`Copy` items move through the closure in input order.
        let names: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let moved: Vec<String> = parallel_map_resilient(names, |s| format!("x{s}"))
            .into_iter()
            .map(|(r, _)| r.unwrap())
            .collect();
        assert_eq!(moved.len(), 50);
        assert_eq!(moved[7], "x7");
    }

    #[test]
    fn resilient_map_stringifies_string_panics() {
        let out = parallel_map_resilient(vec![0usize], |_| -> usize {
            panic!("{}", String::from("owned message"))
        });
        assert_eq!(out[0].0.as_ref().unwrap_err().message, "owned message");
    }

    #[test]
    fn resilient_empty_input_gives_empty_output() {
        let out: Vec<(Result<usize, ClientPanic>, Duration)> =
            parallel_map_resilient(Vec::new(), |i: usize| i);
        assert!(out.is_empty());
    }
}
