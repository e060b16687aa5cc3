//! A counting latch: opens after a preset number of completions.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A one-shot countdown latch.
///
/// Created with a count; [`CountdownLatch::count_down`] decrements it and
/// reports the call that opens it, and [`CountdownLatch::is_open`] tells a
/// waiter whether it has. The pool's constructs count their jobs down on
/// one and help until it opens: the `taskwait` of the parallel runtime.
/// Both operations are `SeqCst`, which the pool's parking protocol relies
/// on.
///
/// ```
/// use arp_par::CountdownLatch;
///
/// let latch = CountdownLatch::new(2);
/// assert!(!latch.count_down());
/// assert!(!latch.is_open());
/// assert!(latch.count_down()); // the second completion opens it
/// assert!(latch.is_open());
/// ```
pub struct CountdownLatch {
    remaining: AtomicUsize,
}

impl CountdownLatch {
    /// Creates a latch that opens after `count` decrements.
    pub fn new(count: usize) -> Self {
        CountdownLatch {
            remaining: AtomicUsize::new(count),
        }
    }

    /// Records one completion and returns whether it opened the latch.
    /// Panics if called more times than the count.
    pub fn count_down(&self) -> bool {
        let before = self.remaining.fetch_sub(1, Ordering::SeqCst);
        assert!(before > 0, "count_down called too many times");
        before == 1
    }

    /// True when the count has reached zero.
    pub fn is_open(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_count_opens_immediately() {
        assert!(CountdownLatch::new(0).is_open());
    }

    #[test]
    fn opens_after_counts() {
        let l = Arc::new(CountdownLatch::new(3));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || l.count_down())
            })
            .collect();
        let opened = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&opened| opened)
            .count();
        assert_eq!(opened, 1, "exactly one count_down opens the latch");
        assert!(l.is_open());
    }

    #[test]
    #[should_panic]
    fn over_count_panics() {
        let l = CountdownLatch::new(1);
        l.count_down();
        l.count_down();
    }
}
