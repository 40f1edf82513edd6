//! Minimal MPSC channel on `std` primitives (`Mutex` + `Condvar`).
//!
//! The streaming front end needs five behaviours from its queues:
//! blocking send (backpressure), non-blocking send (drop/sample overload
//! policies), blocking receive, batched transfer, and disconnect
//! detection in both directions. This module provides precisely that —
//! no external dependencies, and small enough to audit in one sitting.
//!
//! **Batches.** [`Sender::send_all`] enqueues a whole iterator under one
//! lock, waiting only while the queue is full, and
//! [`Receiver::recv_batch`] takes everything queued under one lock. A
//! batch taken by `recv_batch` still counts against the capacity until
//! the receiver's next receive call, so a bounded channel's capacity
//! limits everything between producer and consumer — the queue plus the
//! batch being worked on. `std::sync::mpsc::sync_channel` has no
//! take-all receive, and batching over it would make its capacity count
//! batches instead of values.
//!
//! **Wakeups only for waiters.** Each side counts its threads parked on
//! a condvar, and the other side signals only when that count is
//! nonzero: an uncontended send or receive is a lock and an unlock, with
//! no futex wake.
//!
//! [`bounded`] channels apply backpressure; [`unbounded`] ones never
//! block a sender and suit streams bounded by something else, such as
//! one report per closed interval.
//!
//! Senders are cloneable (many producers); the receiver is single-consumer.
//! Dropping every sender ends the stream after the queue drains; dropping
//! the receiver wakes and fails all blocked senders.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    /// Values handed out by the last [`Receiver::recv_batch`]; they count
    /// against `capacity` until the receiver's next receive call.
    taken: usize,
    senders: usize,
    receiver_alive: bool,
    /// Receive calls parked on `not_empty`.
    receivers_waiting: usize,
    /// Send calls parked on `not_full`.
    senders_waiting: usize,
}

impl<T> State<T> {
    fn has_room(&self) -> bool {
        self.queue.len() + self.taken < self.capacity
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item or all senders drop.
    not_empty: Condvar,
    /// Signalled when capacity frees up or the receiver drops.
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("channel lock")
    }

    /// Wakes a parked receiver, if any, after values were enqueued.
    fn wake_receiver(&self, state: &State<T>) {
        if state.receivers_waiting > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Wakes parked senders, if any, after `freed` slots opened up.
    fn wake_senders(&self, state: &State<T>, freed: usize) {
        if freed > 0 && state.senders_waiting > 0 {
            self.not_full.notify_all();
        }
    }
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError {
    /// The queue is at capacity; the value was not enqueued.
    Full,
    /// The receiver is gone; no send can ever succeed again.
    Disconnected,
}

/// Error returned by [`Receiver::recv`] when the stream has ended (all
/// senders dropped and the queue is drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// The sending half; clone for additional producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel with the given capacity (must be positive).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    channel(capacity, VecDeque::with_capacity(capacity))
}

/// Creates a channel whose sends never wait for room.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(usize::MAX, VecDeque::new())
}

fn channel<T>(capacity: usize, queue: VecDeque<T>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue,
            capacity,
            taken: 0,
            senders: 1,
            receiver_alive: true,
            receivers_waiting: 0,
            senders_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues. Fails only if the
    /// receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        self.send_all(std::iter::once(value))
    }

    /// Enqueues every value in order, under one lock per stretch of free
    /// room: it pushes while there is room and waits only when the queue
    /// is full. Fails if the receiver goes away before every value is
    /// enqueued; the values not yet enqueued are then dropped.
    pub fn send_all<I: IntoIterator<Item = T>>(&self, values: I) -> Result<(), SendError> {
        let mut values = values.into_iter();
        let Some(mut next) = values.next() else { return Ok(()) };
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(SendError);
            }
            let mut pushed = false;
            while state.has_room() {
                state.queue.push_back(next);
                pushed = true;
                match values.next() {
                    Some(value) => next = value,
                    None => {
                        self.shared.wake_receiver(&state);
                        return Ok(());
                    }
                }
            }
            if pushed {
                self.shared.wake_receiver(&state);
            }
            state.senders_waiting += 1;
            state = self.shared.not_full.wait(state).expect("channel lock");
            state.senders_waiting -= 1;
        }
    }

    /// Number of values currently queued (a racy snapshot — by the time
    /// the caller looks, the receiver may have drained some). Used for
    /// queue-depth telemetry, never for flow control.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True when nothing is queued right now (same snapshot caveat as
    /// [`Sender::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking; reports a full queue instead of waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError> {
        let mut state = self.shared.lock();
        if !state.receiver_alive {
            return Err(TrySendError::Disconnected);
        }
        if !state.has_room() {
            return Err(TrySendError::Full);
        }
        state.queue.push_back(value);
        self.shared.wake_receiver(&state);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it can observe
            // the end of the stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next value; `Err` means the stream ended (all senders
    /// dropped, queue drained).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.lock_and_release();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.wake_senders(&state, 1);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.park(state);
        }
    }

    /// Blocks until something is queued, then moves everything queued to
    /// the back of `batch` under one lock (a swap when `batch` is empty,
    /// so two buffers ping-pong without allocating). The moved values
    /// keep counting against the capacity until the next receive call,
    /// which releases them. Returns `false` only once the queue is
    /// drained and every sender is gone.
    pub fn recv_batch(&self, batch: &mut VecDeque<T>) -> bool {
        let mut state = self.lock_and_release();
        loop {
            if !state.queue.is_empty() {
                state.taken = state.queue.len();
                if batch.is_empty() {
                    std::mem::swap(&mut state.queue, batch);
                } else {
                    batch.extend(state.queue.drain(..));
                }
                return true;
            }
            if state.senders == 0 {
                return false;
            }
            state = self.park(state);
        }
    }

    /// Returns immediately with the next value if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.lock_and_release();
        let value = state.queue.pop_front();
        if value.is_some() {
            self.shared.wake_senders(&state, 1);
        }
        value
    }

    /// Blocking iterator over the stream; ends when all senders are gone.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }

    /// Locks the channel and releases the batch the last
    /// [`Receiver::recv_batch`] took: any receive call ends its hold on
    /// the capacity.
    fn lock_and_release(&self) -> MutexGuard<'_, State<T>> {
        let mut state = self.shared.lock();
        let released = std::mem::take(&mut state.taken);
        self.shared.wake_senders(&state, released);
        state
    }

    /// Waits on `not_empty`, counted so senders know to signal.
    fn park<'a>(&'a self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.receivers_waiting += 1;
        let mut state = self.shared.not_empty.wait(state).expect("channel lock");
        state.receivers_waiting -= 1;
        state
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
        // Fail every sender blocked on a full queue.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_send_reports_full() {
        let (tx, _rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full));
    }

    #[test]
    fn send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert!(t.join().unwrap());
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn dropping_receiver_fails_senders() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap(); // fill
        let t = std::thread::spawn(move || tx.send(2)); // blocks
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError));
    }

    #[test]
    fn dropping_all_senders_ends_stream_after_drain() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = bounded(16);
        let threads: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        for t in threads {
            t.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..400).collect::<Vec<i32>>());
    }

    /// Runs `body` on its own thread and fails the test if it has not
    /// finished within 60 s — a lost wakeup hangs instead of failing.
    fn with_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            // The body panicked (dropping the sender): surface its panic.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => worker.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("channel test hung"),
        }
    }

    #[test]
    fn send_all_beyond_capacity_completes_against_a_receiver() {
        with_watchdog(|| {
            let (tx, rx) = bounded(4);
            let producer = std::thread::spawn(move || tx.send_all(0..1_000).is_ok());
            let (mut got, mut batch) = (Vec::new(), VecDeque::new());
            while rx.recv_batch(&mut batch) {
                assert!(batch.len() <= 4, "a batch larger than the capacity");
                got.extend(batch.drain(..));
            }
            assert!(producer.join().unwrap());
            assert_eq!(got, (0..1_000).collect::<Vec<i32>>());
        });
    }

    #[test]
    fn dropping_receiver_fails_blocked_send_all() {
        with_watchdog(|| {
            let (tx, rx) = bounded(2);
            let t = std::thread::spawn(move || tx.send_all(0..10)); // blocks at 2
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            assert_eq!(t.join().unwrap(), Err(SendError));
        });
    }

    #[test]
    fn send_all_of_nothing_never_blocks() {
        let (tx, _rx) = bounded::<i32>(1);
        tx.send(1).unwrap(); // full
        assert_eq!(tx.send_all(std::iter::empty()), Ok(()));
    }

    #[test]
    fn recv_batch_ends_only_after_drain_and_all_senders_gone() {
        with_watchdog(|| {
            let (tx, rx) = bounded(8);
            let tx2 = tx.clone();
            tx.send_all([1, 2]).unwrap();
            drop(tx);
            let mut batch = VecDeque::new();
            // One sender gone, values queued: the batch arrives.
            assert!(rx.recv_batch(&mut batch));
            assert_eq!(batch.drain(..).collect::<Vec<_>>(), vec![1, 2]);
            // Queue empty, a sender alive: recv_batch waits for it.
            let late = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx2.send(3).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
            assert!(rx.recv_batch(&mut batch));
            assert_eq!(batch.drain(..).collect::<Vec<_>>(), vec![3]);
            // The last sender leaves with nothing queued: the stream ends.
            assert!(!rx.recv_batch(&mut batch));
            assert!(batch.is_empty());
            late.join().unwrap();
        });
    }

    #[test]
    fn taken_values_hold_capacity_until_next_receive() {
        with_watchdog(|| {
            let (tx, rx) = bounded(2);
            tx.send_all([1, 2]).unwrap();
            let mut batch = VecDeque::new();
            assert!(rx.recv_batch(&mut batch));
            assert_eq!(batch.len(), 2);
            // The queue is empty, but the taken batch still fills it.
            assert_eq!(tx.try_send(3), Err(TrySendError::Full));
            let sent = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = std::sync::Arc::clone(&sent);
            let blocked = std::thread::spawn(move || {
                tx.send(3).unwrap();
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!sent.load(std::sync::atomic::Ordering::SeqCst), "send passed the bound");
            // The next receive releases the batch and unblocks the sender.
            batch.clear();
            assert!(rx.recv_batch(&mut batch));
            assert_eq!(batch.drain(..).collect::<Vec<_>>(), vec![3]);
            blocked.join().unwrap();
            assert!(sent.load(std::sync::atomic::Ordering::SeqCst));
        });
    }

    #[test]
    fn capacity_one_stress_loses_no_wakeup() {
        with_watchdog(|| {
            const PER_PRODUCER: i32 = 3_000;
            let (tx, rx) = bounded(1);
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut values = (p * PER_PRODUCER..(p + 1) * PER_PRODUCER).peekable();
                        let mut round = 0;
                        while values.peek().is_some() {
                            round += 1;
                            match (round + p) % 3 {
                                0 => tx.send(values.next().unwrap()).unwrap(),
                                1 => tx.send_all(values.by_ref().take(5)).unwrap(),
                                _ => {
                                    let v = values.next().unwrap();
                                    while let Err(e) = tx.try_send(v) {
                                        assert_eq!(e, TrySendError::Full);
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            // Alternate the receive flavours so released batches and
            // single pops both have to wake the parked senders.
            let (mut got, mut batch, mut round) = (Vec::new(), VecDeque::new(), 0);
            loop {
                round += 1;
                if round % 2 == 0 {
                    if !rx.recv_batch(&mut batch) {
                        break;
                    }
                    got.extend(batch.drain(..));
                } else {
                    match rx.recv() {
                        Ok(v) => got.push(v),
                        Err(RecvError) => break,
                    }
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            got.sort_unstable();
            assert_eq!(got, (0..4 * PER_PRODUCER).collect::<Vec<i32>>());
        });
    }

    #[test]
    fn unbounded_sends_never_wait() {
        let (tx, rx) = unbounded();
        tx.send_all(0..10_000).unwrap();
        drop(tx);
        let mut batch = VecDeque::new();
        assert!(rx.recv_batch(&mut batch));
        assert_eq!(batch.len(), 10_000);
        assert!(!rx.recv_batch(&mut batch));
    }
}
