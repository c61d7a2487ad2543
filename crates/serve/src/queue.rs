//! A bounded MPMC admission queue built on `Mutex` + `Condvar`, plus
//! the per-connection [`Outbox`] the reactor drains.
//!
//! Producers (the reactor) never block: [`BoundedQueue::try_push`]
//! either admits the item or hands it straight back, which is what lets
//! the server shed load with an explicit `overloaded` response instead of
//! building an unbounded backlog. Consumers (workers) block in
//! [`BoundedQueue::pop`] until work arrives or the queue is closed and
//! drained.

use std::collections::VecDeque;
use std::io;
use std::sync::{Condvar, Mutex};

/// A fixed-capacity queue with non-blocking admission and blocking pop.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // Queue state is a plain VecDeque + flag; a panicked holder
        // cannot leave it torn, so poisoning is safe to ignore.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit `item` without blocking.
    ///
    /// # Errors
    ///
    /// Hands `item` back when the queue is full or closed; the caller
    /// sheds it. On success returns the queue depth *after* admission
    /// (for telemetry).
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Block until an item is available or the queue is closed and
    /// drained (`None`). Items already admitted before [`close`] are
    /// still handed out, so closing never drops accepted work.
    ///
    /// [`close`]: BoundedQueue::close
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuse new admissions and wake every blocked consumer once the
    /// remaining items drain.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Once this many flushed-and-gone bytes accumulate at the front of an
/// outbox, the buffer is compacted instead of growing forever.
const OUTBOX_COMPACT_AT: usize = 64 * 1024;

/// One connection's outbound byte buffer.
///
/// Producers — workers answering pipelined or ordered requests or
/// pushing watch-stream events, the reactor's own inline control
/// answers — append whole rendered frames; the reactor, sole owner of
/// every socket's write half, drains it with nonblocking writes. Whole-
/// frame pushes under one lock are what keep out-of-order completions
/// from ever interleaving bytes mid-frame, the invariant the old
/// per-connection writer thread existed to provide.
///
/// Closing the outbox (when its connection dies) turns every later push
/// into a no-op, so a worker finishing after the peer is gone writes
/// nowhere; a push that refuses bytes tells a watch stream to stop.
#[derive(Debug, Default)]
pub struct Outbox {
    inner: Mutex<OutboxInner>,
}

#[derive(Debug, Default)]
struct OutboxInner {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    head: usize,
    closed: bool,
}

impl Outbox {
    /// An empty, open outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxInner> {
        // Like the queue: plain bytes + cursors, nothing a panicked
        // holder could leave torn.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one rendered frame. Returns whether it was accepted
    /// (`false` once closed).
    pub fn push(&self, bytes: &[u8]) -> bool {
        let mut inner = self.lock();
        if inner.closed {
            return false;
        }
        inner.buf.extend_from_slice(bytes);
        true
    }

    /// Refuse all future pushes and drop whatever was still buffered.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.buf.clear();
        inner.head = 0;
    }

    /// Whether nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.head == inner.buf.len()
    }

    /// Bytes waiting to be written.
    pub fn pending(&self) -> usize {
        let inner = self.lock();
        inner.buf.len() - inner.head
    }

    /// Write as much buffered output as `w` will take without blocking;
    /// returns the number of bytes written by this call. `WouldBlock`
    /// (and a zero-length write) stop the drain and are not errors —
    /// the remaining bytes stay buffered for the next sweep.
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock`/`Interrupted`; the
    /// connection is dead and the caller closes it.
    pub fn flush_into(&self, w: &mut impl io::Write) -> io::Result<usize> {
        let mut inner = self.lock();
        let mut written = 0;
        while inner.head < inner.buf.len() {
            match w.write(&inner.buf[inner.head..]) {
                Ok(0) => break,
                Ok(n) => {
                    inner.head += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if inner.head == inner.buf.len() {
            inner.buf.clear();
            inner.head = 0;
        } else if inner.head >= OUTBOX_COMPACT_AT {
            let head = inner.head;
            inner.buf.drain(..head);
            inner.head = 0;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_until_full_then_shed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(2));
    }

    #[test]
    fn close_drains_admitted_items_then_returns_none() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7u32).unwrap();
        q.close();
        let got: Vec<Option<u32>> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|g| g.is_none()).count(), 2);
    }

    #[test]
    fn close_racing_try_push_never_loses_or_duplicates_items() {
        // Producers race `close()`: whatever interleaving happens, every
        // push either returned Ok (and the item must drain exactly once)
        // or handed the item back — nothing is lost or duplicated.
        use std::collections::BTreeSet;
        use std::sync::Barrier;
        for _ in 0..50 {
            let q = Arc::new(BoundedQueue::new(64));
            let barrier = Arc::new(Barrier::new(5));
            let pushers: Vec<_> = (0..4u32)
                .map(|t| {
                    let q = Arc::clone(&q);
                    let barrier = Arc::clone(&barrier);
                    thread::spawn(move || {
                        barrier.wait();
                        let mut admitted = Vec::new();
                        for i in 0..16u32 {
                            if q.try_push((t, i)).is_ok() {
                                admitted.push((t, i));
                            }
                        }
                        admitted
                    })
                })
                .collect();
            let closer = {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    q.close();
                })
            };
            let admitted: BTreeSet<(u32, u32)> = pushers
                .into_iter()
                .flat_map(|p| p.join().unwrap())
                .collect();
            closer.join().unwrap();
            let mut drained = BTreeSet::new();
            while let Some(item) = q.pop() {
                assert!(drained.insert(item), "item {item:?} drained twice");
            }
            assert_eq!(
                drained, admitted,
                "admitted items and drained items diverge"
            );
            assert!(q.try_push((9, 9)).is_err(), "closed queue admitted an item");
        }
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Err(2));
    }

    /// A writer that takes at most `cap` bytes per call, then reports
    /// `WouldBlock` — a kernel send buffer in miniature.
    struct ChokedWriter {
        cap: usize,
        out: Vec<u8>,
    }

    impl io::Write for ChokedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            if n == 0 {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.out.extend_from_slice(&buf[..n]);
            self.cap -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbox_flushes_whole_frames_in_push_order() {
        let ob = Outbox::new();
        assert!(ob.push(b"{\"ok\":true}\n"));
        assert!(ob.push(b"{\"ok\":false}\n"));
        assert_eq!(ob.pending(), 25);
        let mut w = ChokedWriter {
            cap: usize::MAX,
            out: Vec::new(),
        };
        assert_eq!(ob.flush_into(&mut w).unwrap(), 25);
        assert_eq!(w.out, b"{\"ok\":true}\n{\"ok\":false}\n");
        assert!(ob.is_empty());
    }

    #[test]
    fn outbox_survives_a_partial_write_and_resumes_where_it_stopped() {
        let ob = Outbox::new();
        ob.push(b"abcdefgh\n");
        let mut w = ChokedWriter {
            cap: 3,
            out: Vec::new(),
        };
        assert_eq!(ob.flush_into(&mut w).unwrap(), 3, "choked after 3 bytes");
        assert_eq!(ob.pending(), 6);
        assert!(!ob.is_empty());
        w.cap = usize::MAX;
        assert_eq!(ob.flush_into(&mut w).unwrap(), 6);
        assert_eq!(w.out, b"abcdefgh\n");
        assert!(ob.is_empty());
    }

    #[test]
    fn closed_outbox_drops_pushes_and_pending_bytes() {
        let ob = Outbox::new();
        assert!(ob.push(b"never-sent\n"));
        ob.close();
        assert!(ob.is_empty(), "close drops buffered bytes");
        assert!(!ob.push(b"late reply\n"), "push after close is a no-op");
        let mut w = ChokedWriter {
            cap: usize::MAX,
            out: Vec::new(),
        };
        assert_eq!(ob.flush_into(&mut w).unwrap(), 0);
        assert!(w.out.is_empty());
    }

    #[test]
    fn outbox_propagates_real_transport_errors() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let ob = Outbox::new();
        ob.push(b"x\n");
        let e = ob.flush_into(&mut Broken).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
    }
}
