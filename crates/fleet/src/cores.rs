//! How many cores a job may use: the host's, and the share a pool
//! leaves to each of its jobs beyond the one the job runs on.
//!
//! A pool worker is told its share when it is spawned: with `workers`
//! threads on `cores` cores, each job may use `cores / workers − 1`
//! more (0 once the pool fills the host). A thread outside any pool
//! may use every core but its own. A job reads its share through
//! [`spare_cores`] to decide whether helper threads of its own would
//! run on an idle core or only take one from its siblings.

use std::cell::Cell;

thread_local! {
    /// The calling thread's spare cores, when a pool or
    /// [`with_spare_cores`] has set them.
    static SPARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The cores this process may run on (1 if the host cannot say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cores a job on the calling thread may use beyond its own: a
/// pool worker's share of the host, `cores() − 1` on any other thread,
/// or what an enclosing [`with_spare_cores`] says.
pub fn spare_cores() -> usize {
    SPARE.with(Cell::get).unwrap_or_else(|| cores() - 1)
}

/// Runs `f` with [`spare_cores`] reading `n` on the calling thread,
/// then restores what it read before (also if `f` panics).
pub fn with_spare_cores<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPARE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SPARE.with(|s| s.replace(Some(n))));
    f()
}

/// Marks the calling thread as one of `workers` pool workers sharing
/// `cores` cores.
pub(crate) fn enter_pool(cores: usize, workers: usize) {
    SPARE.with(|s| s.set(Some((cores / workers.max(1)).saturating_sub(1))));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_outside_any_pool_may_use_every_other_core() {
        let outside = std::thread::spawn(spare_cores).join().unwrap();
        assert_eq!(outside, cores() - 1);
        assert_eq!(spare_cores(), cores() - 1);
    }

    #[test]
    fn the_override_nests_and_restores() {
        let before = spare_cores();
        with_spare_cores(0, || {
            assert_eq!(spare_cores(), 0);
            with_spare_cores(3, || assert_eq!(spare_cores(), 3));
            assert_eq!(spare_cores(), 0);
        });
        assert_eq!(spare_cores(), before);
        let unwound = std::panic::catch_unwind(|| with_spare_cores(5, || panic!("job failed")));
        assert!(unwound.is_err());
        assert_eq!(spare_cores(), before, "a panic restores the share too");
    }

    #[test]
    fn a_worker_gets_its_share_of_the_host() {
        for (cores, workers, share) in [
            (2, 1, 1),
            (2, 2, 0),
            (2, 3, 0),
            (8, 3, 1),
            (8, 2, 3),
            (1, 1, 0),
        ] {
            std::thread::spawn(move || {
                enter_pool(cores, workers);
                assert_eq!(spare_cores(), share, "{workers} workers on {cores} cores");
            })
            .join()
            .unwrap();
        }
    }
}
