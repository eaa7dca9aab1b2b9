//! The host-side redo protocol: which queries to re-run after a kernel
//! round whose buffers overflowed.
//!
//! The paper re-invokes the kernel with the overflowed queries; because
//! buffer space per query is `total / batch`, re-invocations with fewer
//! queries get more space. When *no* query completed in a round, re-running
//! the same batch would make no progress (same per-query space, same result
//! volume), so the scheduler halves the batch instead — deferring the rest —
//! until either progress resumes or a single query alone cannot fit, which
//! is a hard capacity error.

use std::collections::VecDeque;

/// Decision after a kernel round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NextBatch {
    /// All queries completed: the search is finished.
    Done,
    /// Run these query ids next.
    Ids(Vec<u32>),
    /// A single query cannot complete with the configured buffers.
    Stuck,
}

/// Tracks queries awaiting re-execution and sizes the next batch. It
/// starts empty: the first round (all queries) is launched by the caller
/// before consulting the schedule.
#[derive(Debug, Default)]
pub struct RedoSchedule {
    queue: VecDeque<u32>,
}

impl RedoSchedule {
    /// Record a finished round: `redo` lists the queries that overflowed out
    /// of a batch of `batch_len`, and the return value says what to run
    /// next.
    ///
    /// `redo` arrives in whatever order the device's warps finished (and
    /// once per overflowing tile of a query); it is put in ascending,
    /// duplicate-free order here so the next round's warp composition — and
    /// every cost derived from it — never depends on host scheduling.
    pub fn next(&mut self, mut redo: Vec<u32>, batch_len: usize) -> NextBatch {
        redo.sort_unstable();
        redo.dedup();
        assert!(redo.len() <= batch_len, "more redo ids than launched threads");
        let no_progress = !redo.is_empty() && redo.len() == batch_len;
        self.queue.extend(redo);
        if self.queue.is_empty() {
            return NextBatch::Done;
        }
        let take = if no_progress {
            if batch_len == 1 {
                return NextBatch::Stuck;
            }
            // Halve the batch so each query gets more buffer space and the
            // round produces fewer results.
            (batch_len / 2).max(1)
        } else {
            self.queue.len()
        };
        NextBatch::Ids(self.queue.drain(..take.min(self.queue.len())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_done_immediately() {
        let mut s = RedoSchedule::default();
        assert_eq!(s.next(vec![], 100), NextBatch::Done);
    }

    #[test]
    fn partial_redo_runs_all_remaining() {
        let mut s = RedoSchedule::default();
        match s.next(vec![3, 7, 9], 100) {
            NextBatch::Ids(ids) => assert_eq!(ids, vec![3, 7, 9]),
            other => panic!("{other:?}"),
        }
        // Nothing was deferred.
        assert_eq!(s.next(vec![], 3), NextBatch::Done);
    }

    #[test]
    fn no_progress_halves_and_defers() {
        let mut s = RedoSchedule::default();
        // 8 queries launched, all 8 redo → run 4, keep 4 queued.
        match s.next((0..8).collect(), 8) {
            NextBatch::Ids(ids) => assert_eq!(ids, vec![0, 1, 2, 3]),
            other => panic!("{other:?}"),
        }
        // Those 4 all redo again → run 2, keep 6 queued.
        match s.next((0..4).collect(), 4) {
            NextBatch::Ids(ids) => assert_eq!(ids, vec![4, 5]),
            other => panic!("{other:?}"),
        }
        // The 2 complete → run the 6 deferred.
        assert_eq!(s.next(vec![], 2), NextBatch::Ids(vec![6, 7, 0, 1, 2, 3]));
        assert_eq!(s.next(vec![], 6), NextBatch::Done);
    }

    #[test]
    fn redo_order_and_duplicates_do_not_matter() {
        let a = RedoSchedule::default().next(vec![9, 3, 7, 3], 4);
        let b = RedoSchedule::default().next(vec![3, 7, 3, 9], 4);
        assert_eq!(a, NextBatch::Ids(vec![3, 7, 9]));
        assert_eq!(a, b);
    }

    #[test]
    fn single_query_stuck() {
        let mut s = RedoSchedule::default();
        assert_eq!(s.next(vec![5], 1), NextBatch::Stuck);
    }

    #[test]
    fn progress_resumes_full_queue() {
        let mut s = RedoSchedule::default();
        // No progress on 4 → run 2 (2 deferred).
        let _ = s.next(vec![0, 1, 2, 3], 4);
        // Those 2 complete → run the 2 deferred.
        match s.next(vec![], 2) {
            NextBatch::Ids(ids) => assert_eq!(ids.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.next(vec![], 2), NextBatch::Done);
    }

    #[test]
    fn terminates_under_worst_case() {
        // Adversarial: every round redoes everything until batch = 1, then
        // the single query completes. Must terminate.
        let mut s = RedoSchedule::default();
        let mut batch: Vec<u32> = (0..64).collect();
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 1_000, "runaway");
            // Nothing completes except single-query batches.
            let redo = if batch.len() == 1 { vec![] } else { batch.clone() };
            match s.next(redo, batch.len()) {
                NextBatch::Done => break,
                NextBatch::Ids(ids) => batch = ids,
                NextBatch::Stuck => panic!("unexpected stuck"),
            }
        }
    }
}
