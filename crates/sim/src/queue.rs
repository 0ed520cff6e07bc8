//! A deterministic discrete-event queue.
//!
//! Events at equal timestamps pop in insertion order (a monotone sequence
//! number breaks ties), which keeps whole-machine simulations reproducible
//! run to run and across platforms.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// ```
/// use bulk_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "b");
/// q.push(10, "a");
/// q.push(20, "c");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b")));
/// assert_eq!(q.pop(), Some((20, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: u64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The index of the earliest clock among the lanes that can run (`Some`),
/// ties to the lowest index — the "advance the laggard processor" step of
/// clock-ordered simulation, shared by both sim machines' schedulers.
///
/// Branch-free: a running `u128` minimum of `clock << 64 | index`, where a
/// lane that cannot run (`None`) counts as `u128::MAX`.
///
/// ```
/// use bulk_sim::earliest;
/// assert_eq!(earliest([Some(3), None, Some(1), Some(1)]), Some(2));
/// assert_eq!(earliest([None, None]), None);
/// ```
#[inline]
pub fn earliest(clocks: impl IntoIterator<Item = Option<u64>>) -> Option<usize> {
    let best = clocks.into_iter().enumerate().fold(u128::MAX, |best, (i, clock)| {
        best.min(clock.map_or(u128::MAX, |c| u128::from(c) << 64 | i as u128))
    });
    (best != u128::MAX).then_some(best as u64 as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(5, 'x');
        q.push(1, 'y');
        q.push(5, 'z');
        assert_eq!(q.pop(), Some((1, 'y')));
        assert_eq!(q.pop(), Some((5, 'x')));
        assert_eq!(q.pop(), Some((5, 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(0, ());
        q.push(0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn earliest_breaks_ties_low_and_skips_lanes_that_cannot_run() {
        assert_eq!(earliest([Some(3), Some(1), Some(1), Some(2)]), Some(1));
        assert_eq!(earliest([]), None);
        assert_eq!(earliest([Some(7)]), Some(0));
        assert_eq!(earliest([None, Some(9), None, Some(9)]), Some(1));
        assert_eq!(earliest([Some(0), None]), Some(0));
        assert_eq!(earliest([None, None, None]), None);
        // The full clock range orders, and the top clock still runs.
        assert_eq!(earliest([Some(u64::MAX), None, Some(u64::MAX - 1)]), Some(2));
        assert_eq!(earliest([None, Some(u64::MAX)]), Some(1));
    }
}
