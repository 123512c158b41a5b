//! The thread pool: N workers over one shared claim cursor, results
//! into a slot-addressed buffer.
//!
//! Workers claim the next job index with one `fetch_add` on a shared
//! cursor, so a worker that finishes early simply claims more, and a
//! worker parked in a long job never holds work back from the others.
//! Every index is claimed by exactly one `fetch_add` winner, and each
//! result lands in its job's own slot, which is what keeps the output
//! order independent of scheduling.

use crate::cores::{cores, enter_pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` value: `0` means one worker per available core,
/// and the count never exceeds the number of jobs (spawning idle threads
/// is pointless).
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let workers = if requested == 0 { cores() } else { requested };
    workers.clamp(1, jobs.max(1))
}

/// Runs every job on `workers` threads and returns the results **in job
/// order**, regardless of which worker finished what when.
///
/// `run` receives `(worker index, &job)`. Inside it,
/// [`spare_cores`](crate::spare_cores) reads the worker's share of the
/// host: `cores() / workers − 1`. Panics in a job propagate once all
/// workers have stopped.
pub fn run_parallel<J, R, F>(workers: usize, jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_observed(workers, jobs, run, |_, _| {}, |_, _, _: &R| {})
}

/// [`run_parallel`] with start/finish hooks, for progress reporting and
/// manifest appends. `on_start(worker, index)` fires when a worker claims
/// a job; `on_finish(worker, index, &result)` fires after the job ran but
/// before its result is parked in the buffer, so a crash between the two
/// at worst re-runs one already-recorded job on resume.
pub fn run_observed<J, R, F, S, C>(
    workers: usize,
    jobs: &[J],
    run: F,
    on_start: S,
    on_finish: C,
) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    S: Fn(usize, usize) + Sync,
    C: Fn(usize, usize, &R) + Sync,
{
    let n = jobs.len();
    let workers = resolve_workers(workers, n);
    let cores = cores();
    let next = AtomicUsize::new(0);
    // One mutex per slot: a worker only ever locks the slot it owns, so
    // there is no contention and no unsafe indexing.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, slots, run, on_start, on_finish) =
                    (&next, &slots, &run, &on_start, &on_finish);
                scope.spawn(move || {
                    enter_pool(cores, workers);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        on_start(w, i);
                        let r = run(w, &jobs[i]);
                        on_finish(w, i, &r);
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    }
                })
            })
            .collect();
        // Join every worker instead of letting the scope wait for them.
        // The scope returns once a worker's closure ends. `join` also waits
        // for its thread to exit, which hands the thread's malloc arena
        // back for reuse. Without it, a worker spawned by the next call
        // could race that hand-back and get a fresh arena. Both arenas
        // would then stay resident, so peak memory would depend on thread
        // timing.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        for result in joined {
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_in_job_order_at_any_worker_count() {
        let jobs: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = jobs.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_parallel(workers, &jobs, |_, &x| x * x);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let jobs: Vec<usize> = (0..50).collect();
        run_parallel(7, &jobs, |_, &x| {
            seen.lock().unwrap().push(x);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 50);
        assert_eq!(seen.iter().collect::<HashSet<_>>().len(), 50);
    }

    #[test]
    fn hooks_fire_per_job() {
        let starts = AtomicUsize::new(0);
        let finishes = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..23).collect();
        let out = run_observed(
            4,
            &jobs,
            |_, &x| x + 1,
            |_, _| {
                starts.fetch_add(1, Ordering::Relaxed);
            },
            |_, i, r: &u32| {
                assert_eq!(*r, jobs[i] + 1);
                finishes.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.len(), 23);
        assert_eq!(starts.load(Ordering::Relaxed), 23);
        assert_eq!(finishes.load(Ordering::Relaxed), 23);
    }

    #[test]
    fn zero_requested_workers_resolves_to_cores() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cores(), host);
        assert_eq!(resolve_workers(0, 1000), host.min(1000));
        assert_eq!(resolve_workers(0, 0), 1);
        assert_eq!(resolve_workers(8, 3), 3, "never more workers than jobs");
        assert_eq!(resolve_workers(2, 1000), 2);
    }

    #[test]
    fn exhausted_workers_steal_from_busy_shards() {
        // 2 workers over 4 jobs. Whichever worker runs job 2 parks
        // until job 3's signal, so the run can only finish if the other
        // worker goes on claiming from the shared cursor and runs job 3.
        // A pool that hands a parked worker's jobs to no one else
        // deadlocks here (test times out).
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let jobs: Vec<usize> = (0..4).collect();
        let out = run_parallel(2, &jobs, |_, &x| {
            if x == 2 {
                rx.lock().unwrap().recv().unwrap();
            }
            if x == 3 {
                tx.send(()).unwrap();
            }
            x * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn workers_have_exited_when_the_call_returns() {
        // A thread's thread-local destructors run as it exits, after its
        // closure has ended. Each slow one has finished by the time the
        // call returns only if the call joins its workers.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct Exit;
        impl Drop for Exit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(5));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: Exit = const { Exit });
        // Two jobs meeting at a barrier: each of the two workers runs one.
        let barrier = std::sync::Barrier::new(2);
        for round in 1..=5 {
            run_parallel(2, &[0, 1], |_, _| {
                EXIT.with(|_| ());
                barrier.wait();
            });
            assert_eq!(EXITED.load(Ordering::SeqCst), 2 * round);
        }
    }

    #[test]
    fn a_lone_worker_may_use_every_other_core_and_a_full_pool_none() {
        let jobs: Vec<usize> = (0..2 * cores()).collect();
        let lone = run_parallel(1, &jobs, |_, _| crate::spare_cores());
        assert!(lone.iter().all(|&s| s == cores() - 1), "{lone:?}");
        let full = run_parallel(cores(), &jobs, |_, _| crate::spare_cores());
        assert!(full.iter().all(|&s| s == 0), "{full:?}");
        // The share is the pool's, not the calling thread's.
        let nested =
            crate::with_spare_cores(7, || run_parallel(1, &jobs, |_, _| crate::spare_cores()));
        assert!(nested.iter().all(|&s| s == cores() - 1), "{nested:?}");
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn a_job_panic_propagates_with_its_payload() {
        let jobs: Vec<usize> = (0..8).collect();
        run_parallel(2, &jobs, |_, &x| {
            if x == 3 {
                panic!("job 3 failed");
            }
        });
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = run_parallel(4, &Vec::<u8>::new(), |_, &x| x);
        assert!(out.is_empty());
    }
}
