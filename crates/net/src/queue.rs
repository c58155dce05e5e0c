//! A bounded, closable MPSC queue for per-connection outbound frames.
//!
//! `std::sync::mpsc::SyncSender` almost fits, but a sender blocked on a
//! full queue can only be woken by the receiver — and the receiver here is
//! a writer thread that may be gone (its TCP peer died). [`OutQueue::close`]
//! is the missing operation: any thread can mark the queue dead and every
//! blocked producer wakes immediately with [`PushError::Closed`], so a
//! publisher can never wedge on a dead subscriber's queue. This is the
//! mechanism behind the `Block` delivery policy staying deadlock-free.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (only from [`OutQueue::try_push`]).
    Full,
    /// The queue was closed; the connection behind it is gone.
    Closed,
}

/// What the server does with a notification when the subscriber's
/// [`OutQueue`] is full (acks and errors always wait for space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// The publisher waits for space ([`OutQueue::push_blocking`]):
    /// lossless, but a slow subscriber stalls publishers targeting it.
    #[default]
    Block,
    /// Drop the notification and consume its sequence number, so the
    /// subscriber sees a gap where deliveries were shed.
    Shed,
    /// Disconnect the slow subscriber; its session survives and can resume.
    ErrorFast,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backpressure::Block => "block",
            Backpressure::Shed => "shed",
            Backpressure::ErrorFast => "error-fast",
        })
    }
}

impl std::str::FromStr for Backpressure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "block" => Backpressure::Block,
            "shed" => Backpressure::Shed,
            "error-fast" | "error_fast" | "errorfast" => Backpressure::ErrorFast,
            other => return Err(format!("unknown backpressure policy: {other}")),
        })
    }
}

struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC queue whose producers can be unblocked by closing it.
pub struct OutQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when space frees up or the queue closes (producers wait).
    space: Condvar,
    /// Signalled when an item arrives or the queue closes (consumer waits).
    items: Condvar,
    cap: usize,
}

impl<T> OutQueue<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                buf: VecDeque::new(),
                closed: false,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues, waiting for space. Fails only if the queue is (or becomes)
    /// closed while waiting.
    pub fn push_blocking(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.buf.len() < self.cap {
                inner.buf.push_back(item);
                self.items.notify_one();
                return Ok(());
            }
            inner = self.space.wait(inner).unwrap();
        }
    }

    /// Enqueues without waiting.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.buf.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.buf.push_back(item);
        self.items.notify_one();
        Ok(())
    }

    /// Enqueues every item of `items`, front first, waiting for space as
    /// often as needed; accepted items are drained out of `items`. Each
    /// round enqueues what fits and wakes the consumer *before* waiting, so
    /// a batch larger than the free space (or the whole capacity) cannot
    /// deadlock against its own consumer. Fails only if the queue is (or
    /// becomes) closed; `items` then holds what was not enqueued.
    pub fn push_all_blocking(&self, items: &mut Vec<T>) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            self.push_prefix(&mut inner, items);
            if items.is_empty() {
                return Ok(());
            }
            inner = self.space.wait(inner).unwrap();
        }
    }

    /// Enqueues the longest prefix of `items` that fits, without waiting,
    /// and returns its length; accepted items are drained out of `items`,
    /// the rest stay there. Fails (accepting nothing) if the queue is
    /// closed.
    pub fn try_push_all(&self, items: &mut Vec<T>) -> Result<usize, PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        Ok(self.push_prefix(&mut inner, items))
    }

    /// Moves the longest prefix of `items` that fits into the open queue
    /// behind `inner`'s lock, waking the consumer if it moved any; returns
    /// how many.
    fn push_prefix(&self, inner: &mut Inner<T>, items: &mut Vec<T>) -> usize {
        let take = self.cap.saturating_sub(inner.buf.len()).min(items.len());
        if take > 0 {
            inner.buf.extend(items.drain(..take));
            self.items.notify_one();
        }
        take
    }

    /// Dequeues, waiting for an item. Returns `None` once the queue is
    /// closed — immediately, discarding anything still buffered: close
    /// means the connection is dead and its frames have nowhere to go.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return None;
            }
            if let Some(item) = inner.buf.pop_front() {
                self.space.notify_one();
                return Some(item);
            }
            inner = self.items.wait(inner).unwrap();
        }
    }

    /// Dequeues everything buffered into `out` (appended in FIFO order),
    /// waiting until at least one item is there. One drain wakes every
    /// blocked producer once. Returns `false`, leaving `out` untouched, once
    /// the queue is closed — with the same discard-on-close rule as
    /// [`OutQueue::pop`].
    pub fn pop_all(&self, out: &mut Vec<T>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return false;
            }
            if !inner.buf.is_empty() {
                out.extend(inner.buf.drain(..));
                self.space.notify_all();
                return true;
            }
            inner = self.items.wait(inner).unwrap();
        }
    }

    /// Closes the queue: every blocked producer and the consumer wake, and
    /// all future operations fail fast. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.space.notify_all();
        self.items.notify_all();
    }

    /// Whether [`OutQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_and_capacity() {
        let q = OutQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn backpressure_parses_and_displays() {
        for p in [
            Backpressure::Block,
            Backpressure::Shed,
            Backpressure::ErrorFast,
        ] {
            let parsed: Backpressure = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("nonsense".parse::<Backpressure>().is_err());
    }

    #[test]
    fn close_unblocks_a_full_queue_producer() {
        let q = Arc::new(OutQueue::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(1))
        };
        // Give the producer time to block on the full queue, then close.
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
        assert_eq!(q.pop(), None, "close discards buffered items");
    }

    #[test]
    fn push_all_larger_than_capacity_completes_against_a_live_consumer() {
        // 3 × capacity in one call: each round fills the queue and must
        // wake the consumer before waiting for it to make room.
        let q = Arc::new(OutQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 12 && q.pop_all(&mut got) {}
                got
            })
        };
        let mut items: Vec<u32> = (0..12).collect();
        assert_eq!(q.push_all_blocking(&mut items), Ok(()));
        assert!(items.is_empty(), "every item accepted");
        assert_eq!(consumer.join().unwrap(), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn close_unblocks_a_blocked_push_all() {
        let q = Arc::new(OutQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut items = vec![1u32, 2, 3, 4, 5];
                let result = q.push_all_blocking(&mut items);
                (result, items)
            })
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        let (result, left) = producer.join().unwrap();
        assert_eq!(result, Err(PushError::Closed));
        assert_eq!(left, vec![3, 4, 5], "the prefix that fit was accepted");
    }

    #[test]
    fn try_push_all_accepts_the_prefix_that_fits() {
        let q = OutQueue::new(3);
        q.try_push(0u32).unwrap();
        let mut items = vec![1, 2, 3, 4];
        assert_eq!(q.try_push_all(&mut items), Ok(2));
        assert_eq!(items, vec![3, 4], "the rest stays with the caller");
        assert_eq!(q.try_push_all(&mut items), Ok(0), "full: nothing fits");
        q.close();
        assert_eq!(q.try_push_all(&mut items), Err(PushError::Closed));
    }

    #[test]
    fn order_is_fifo_across_single_and_batch_operations() {
        let q = OutQueue::new(16);
        q.try_push(0u32).unwrap();
        q.push_all_blocking(&mut vec![1, 2, 3]).unwrap();
        q.push_blocking(4).unwrap();
        assert_eq!(q.try_push_all(&mut vec![5, 6]), Ok(2));
        assert_eq!(q.pop(), Some(0));
        q.try_push(7).unwrap();
        let mut out = vec![99];
        assert!(q.pop_all(&mut out));
        assert_eq!(out, vec![99, 1, 2, 3, 4, 5, 6, 7], "appended in FIFO order");
        assert!(q.is_empty());
        q.close();
        assert!(!q.pop_all(&mut out), "closed");
    }

    #[test]
    fn close_unblocks_the_consumer() {
        let q = Arc::new(OutQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
