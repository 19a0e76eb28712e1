//! Per-rank indexed mailboxes with MPI-style exact `(source, tag)`
//! matching.
//!
//! Each `(communicator, rank)` pair owns one mailbox. Senders push
//! envelopes (never blocking — sends are buffered); receivers either
//! consume a queued match immediately or register themselves and sleep
//! until a matching push hands them an envelope directly.
//!
//! Every receive names its source and tag, so the mailbox is
//! **indexed** by them:
//!
//! * Queued envelopes live in per-`(src, tag)` FIFO buckets, so a
//!   receive matches in O(1) instead of scanning every resident
//!   message.
//! * Blocked receivers and posted nonblocking receives form a FIFO
//!   **consumer registry**, each with its *own* condition variable. A
//!   push that matches a registered consumer deposits the envelope
//!   straight into that consumer's slot and wakes only that thread — a
//!   targeted wakeup, where the old design `notify_all`ed every waiter
//!   on every arrival. A message deposited this way never touches the
//!   queue at all (the in-process analogue of MPI's matched
//!   posted-receive fast path).
//!
//! Every path through the mailbox moves [`crate::message::Envelope`]s
//! **by value** — push, bucket queueing, consumer deposit, and receive
//! all transfer the envelope itself, never its payload bytes. That is
//! what makes the ownership-transfer send path
//! ([`crate::Communicator::isend_owned`]) end-to-end zero-copy: the
//! sender's `Vec` allocation rides inside the envelope untouched until
//! the receiver unwraps it (DESIGN.md §15).
//!
//! Non-overtaking is preserved by construction: a receiver registers
//! only under the same lock where it found no queued match, consumers
//! are matched in registration order, same-`(src, tag)` envelopes share
//! one FIFO bucket, and an envelope handed back by a cancelled posted
//! receive goes to the front of its bucket — everything behind it there
//! arrived after it.

use crate::message::Envelope;
use crate::sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier for a posted receive slot (see [`Mailbox::post_recv`]).
pub type PostedId = u64;

/// A registered consumer: a blocked `recv` or a posted `irecv`. Matched
/// against arriving envelopes in registration (FIFO) order.
struct Consumer {
    id: u64,
    src: usize,
    tag: u64,
    /// Condvar private to this consumer — pushes wake exactly one thread.
    cond: Arc<Condvar>,
    /// Extra condvar notified on deposit, installed by
    /// [`Mailbox::wait_any_posted`] so one thread can sleep on several
    /// posted slots at once.
    watcher: Option<Arc<Condvar>>,
}

#[derive(Default)]
struct State {
    /// Per-`(src, tag)` FIFO buckets of queued envelopes; a bucket is
    /// removed when it empties.
    buckets: HashMap<(usize, u64), VecDeque<Envelope>>,
    /// FIFO registry of blocked receives and posted receive slots.
    consumers: VecDeque<Consumer>,
    /// Envelopes deposited directly into a consumer slot, keyed by
    /// consumer id.
    delivered: HashMap<u64, Envelope>,
    next_id: u64,
}

impl State {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Remove and return the oldest queued envelope from `src` with
    /// `tag`, if any.
    fn take_match(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        let bucket = self.buckets.get_mut(&(src, tag))?;
        let env = bucket.pop_front();
        if bucket.is_empty() {
            self.buckets.remove(&(src, tag));
        }
        env
    }

    fn register_consumer(&mut self, src: usize, tag: u64) -> (u64, Arc<Condvar>) {
        let id = self.fresh_id();
        let cond = Arc::new(Condvar::new());
        self.consumers.push_back(Consumer {
            id,
            src,
            tag,
            cond: Arc::clone(&cond),
            watcher: None,
        });
        (id, cond)
    }

    fn remove_consumer(&mut self, id: u64) {
        if let Some(pos) = self.consumers.iter().position(|c| c.id == id) {
            self.consumers.remove(pos);
        }
    }

    fn consumer_cond(&self, id: u64) -> Option<Arc<Condvar>> {
        self.consumers
            .iter()
            .find(|c| c.id == id)
            .map(|c| Arc::clone(&c.cond))
    }

    /// Hand an envelope to the oldest matching registered consumer,
    /// waking only that thread. Gives the envelope back if nobody
    /// matches. Shared by [`Mailbox::push`] and [`Mailbox::cancel_post`]
    /// so a requeued envelope re-enters matching exactly like a fresh
    /// arrival.
    fn try_deposit(&mut self, env: Envelope) -> Result<(), Envelope> {
        match self.consumers.iter().position(|c| env.matches(c.src, c.tag)) {
            Some(pos) => {
                let consumer = self.consumers.remove(pos).expect("matched consumer");
                self.delivered.insert(consumer.id, env);
                consumer.cond.notify_all();
                if let Some(w) = consumer.watcher {
                    w.notify_all();
                }
                Ok(())
            }
            None => Err(env),
        }
    }
}

/// A blocking, matching message queue for one rank of one communicator.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<State>,
    /// Bumped (under the state lock) by [`Mailbox::interrupt`]. A waiter
    /// snapshots it with [`Mailbox::interrupt_seq`] *before* reading the
    /// failure state it is about to sleep on, and every timed wait
    /// returns early once the value has moved past that snapshot — so
    /// news that lands between the check and the sleep is never slept
    /// through.
    interrupt_seq: AtomicU64,
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit an envelope, handing it directly to the oldest matching
    /// registered consumer if one exists (waking only that thread), else
    /// queueing it at the back of its `(src, tag)` bucket.
    pub fn push(&self, env: Envelope) {
        let mut st = self.state.lock();
        if let Err(env) = st.try_deposit(env) {
            st.buckets.entry((env.src, env.tag)).or_default().push_back(env);
        }
    }

    /// Wake every waiter — blocked receives, claim waits, batched-wait
    /// watchers — so they return early and let their callers re-examine
    /// failure state. Called when a rank is marked failed or the world
    /// aborts; without it, news of a death would wait out
    /// the full timeout slice of every sleeping receiver.
    pub fn interrupt(&self) {
        let st = self.state.lock();
        self.interrupt_seq.fetch_add(1, Ordering::SeqCst);
        for c in st.consumers.iter() {
            c.cond.notify_all();
            if let Some(w) = &c.watcher {
                w.notify_all();
            }
        }
    }

    /// The current interrupt count, for the timed waits' `since`
    /// argument (see the field docs for the protocol).
    pub fn interrupt_seq(&self) -> u64 {
        self.interrupt_seq.load(Ordering::SeqCst)
    }

    fn interrupted(&self, since: u64) -> bool {
        self.interrupt_seq() != since
    }

    /// Remove and return the oldest envelope from `src` with `tag`,
    /// waiting for one to arrive. Gives up (`None`) after `timeout`, or
    /// as soon as the mailbox has been interrupted since the `since`
    /// snapshot. A zero `timeout` only drains the queue.
    pub fn recv_matching_timeout(
        &self,
        src: usize,
        tag: u64,
        since: u64,
        timeout: Duration,
    ) -> Option<Envelope> {
        let mut st = self.state.lock();
        if let Some(env) = st.take_match(src, tag) {
            return Some(env);
        }
        if timeout.is_zero() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        let (id, cond) = st.register_consumer(src, tag);
        loop {
            // A deposit may land between our timeout and reacquiring the
            // lock; always drain the slot before giving up, or the
            // message would be lost.
            if let Some(env) = st.delivered.remove(&id) {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline || self.interrupted(since) {
                st.remove_consumer(id);
                return None;
            }
            // Waking recomputes the remaining window: spurious wakeups
            // must shorten the wait, never restart the full timeout.
            let _ = cond.wait_for(&mut st, deadline - now);
        }
    }

    /// Post a receive slot: future matching pushes deposit their envelope
    /// here (oldest-post-first) without touching the queue. If a match is
    /// already queued it is claimed into the slot immediately. Claim with
    /// [`Mailbox::try_claim`]/[`Mailbox::wait_claim`]; a slot that will
    /// never be claimed must be [`Mailbox::cancel_post`]ed.
    pub fn post_recv(&self, src: usize, tag: u64) -> PostedId {
        let mut st = self.state.lock();
        if let Some(env) = st.take_match(src, tag) {
            let id = st.fresh_id();
            st.delivered.insert(id, env);
            return id;
        }
        st.register_consumer(src, tag).0
    }

    /// Nonblocking claim of a posted receive slot.
    pub fn try_claim(&self, id: PostedId) -> Option<Envelope> {
        self.state.lock().delivered.remove(&id)
    }

    /// Block until the posted slot `id` holds an envelope, `timeout`
    /// elapses, or the mailbox is interrupted past the `since` snapshot.
    /// Returns `None` without an envelope (the slot stays posted).
    pub fn wait_claim(&self, id: PostedId, since: u64, timeout: Duration) -> Option<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if let Some(env) = st.delivered.remove(&id) {
                return Some(env);
            }
            let cond = st.consumer_cond(id)?; // cancelled or double-claimed
            let now = Instant::now();
            if now >= deadline || self.interrupted(since) {
                return None;
            }
            let _ = cond.wait_for(&mut st, deadline - now);
        }
    }

    /// Cancel a posted receive. An envelope already deposited in the slot
    /// re-enters matching exactly as a fresh arrival would: it is handed
    /// to the oldest registered consumer if one matches (the receiver may
    /// have registered while the envelope sat in the cancelled slot —
    /// this is the cancel-after-rendezvous-handshake hang), else queued
    /// at the front of its bucket, ahead of every same-`(src, tag)`
    /// envelope that arrived after it.
    pub fn cancel_post(&self, id: PostedId) {
        let mut st = self.state.lock();
        st.remove_consumer(id);
        if let Some(env) = st.delivered.remove(&id) {
            if let Err(env) = st.try_deposit(env) {
                st.buckets.entry((env.src, env.tag)).or_default().push_front(env);
            }
        }
    }

    /// Block until one of several posted slots holds an envelope,
    /// `timeout` elapses, or the mailbox is interrupted past the `since`
    /// snapshot. Returns the index into `ids` of a ready slot
    /// without claiming it. This is the progress primitive behind
    /// [`crate::request::wait_all`]: one watcher condvar is attached to
    /// every listed slot, so the caller sleeps once and wakes on the
    /// first deposit.
    pub fn wait_any_posted(
        &self,
        ids: &[PostedId],
        since: u64,
        timeout: Duration,
    ) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        let watcher = Arc::new(Condvar::new());
        let result = loop {
            if let Some(i) = ids.iter().position(|id| st.delivered.contains_key(id)) {
                break Some(i);
            }
            let now = Instant::now();
            if now >= deadline || self.interrupted(since) {
                break None;
            }
            for c in st.consumers.iter_mut() {
                if ids.contains(&c.id) {
                    c.watcher = Some(Arc::clone(&watcher));
                }
            }
            let _ = watcher.wait_for(&mut st, deadline - now);
        };
        for c in st.consumers.iter_mut() {
            if ids.contains(&c.id) {
                c.watcher = None;
            }
        }
        result
    }

    /// Number of queued envelopes. Envelopes deposited in posted receive
    /// slots are already matched and not counted.
    pub fn len(&self) -> usize {
        self.state.lock().buckets.values().map(VecDeque::len).sum()
    }

    /// Whether the mailbox has no pending envelopes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the posted-receive registry: consumers currently waiting
    /// for a match (blocked receives and posted `irecv` slots) plus
    /// matched envelopes delivered to a slot but not yet claimed by
    /// `RecvRequest::wait`.
    pub fn posted_len(&self) -> usize {
        let st = self.state.lock();
        st.consumers.len() + st.delivered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use std::sync::Arc;
    use std::time::Duration;

    /// Take the envelope from `src` with `tag`, waiting up to 5 s.
    fn recv(mb: &Mailbox, src: usize, tag: u64) -> Envelope {
        mb.recv_matching_timeout(src, tag, mb.interrupt_seq(), Duration::from_secs(5))
            .expect("a matching envelope")
    }

    #[test]
    fn push_then_recv_same_thread() {
        let mb = Mailbox::new();
        mb.push(Envelope::new(0, 1, vec![42i32]));
        let env = recv(&mb, 0, 1);
        assert_eq!(env.into_data::<i32>(), vec![42]);
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        mb.push(Envelope::new(0, 1, vec![1i32]));
        mb.push(Envelope::new(0, 2, vec![2i32]));
        let env = recv(&mb, 0, 2);
        assert_eq!(env.into_data::<i32>(), vec![2]);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn non_overtaking_order_for_same_selector() {
        let mb = Mailbox::new();
        mb.push(Envelope::new(3, 9, vec![1u8]));
        mb.push(Envelope::new(3, 9, vec![2u8]));
        assert_eq!(recv(&mb, 3, 9).into_data::<u8>(), vec![1]);
        assert_eq!(recv(&mb, 3, 9).into_data::<u8>(), vec![2]);
    }

    #[test]
    fn blocking_recv_wakes_on_cross_thread_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || recv(&mb2, 5, 5).into_data::<u64>());
        std::thread::sleep(Duration::from_millis(20));
        mb.push(Envelope::new(5, 5, vec![99u64]));
        assert_eq!(handle.join().unwrap(), vec![99]);
    }

    #[test]
    fn timeout_fires_when_nothing_arrives() {
        let mb = Mailbox::new();
        let got = mb.recv_matching_timeout(0, 0, mb.interrupt_seq(), Duration::from_millis(10));
        assert!(got.is_none());
    }

    #[test]
    fn timeout_deadline_survives_spurious_wakeups() {
        // Regression: a steady stream of *non-matching* messages used to
        // wake the receiver over and over under the shared-condvar
        // design; with per-consumer condvars they no longer even wake it,
        // but the deadline must still hold against genuinely spurious
        // wakeups, so the scenario stays.
        let mb = Arc::new(Mailbox::new());
        let feeder = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                for _ in 0..60 {
                    mb.push(Envelope::new(1, 1, vec![0u8]));
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        let t0 = std::time::Instant::now();
        let got = mb.recv_matching_timeout(2, 2, mb.interrupt_seq(), Duration::from_millis(100));
        let elapsed = t0.elapsed();
        assert!(got.is_none());
        // 60 wakeups x 10 ms would stretch a restarting implementation to
        // ~600 ms; the fixed one stays near the 100 ms deadline.
        assert!(
            elapsed < Duration::from_millis(400),
            "deadline restarted on spurious wakeups: {elapsed:?}"
        );
        feeder.join().unwrap();
    }

    #[test]
    fn deposit_during_timeout_race_is_not_lost() {
        // A push that matches a timed receiver exactly at its deadline
        // must end up either received or queued — never dropped.
        for _ in 0..50 {
            let mb = Arc::new(Mailbox::new());
            let mb2 = Arc::clone(&mb);
            let recv = std::thread::spawn(move || {
                mb2.recv_matching_timeout(1, 1, mb2.interrupt_seq(), Duration::from_millis(2))
            });
            std::thread::sleep(Duration::from_millis(2));
            mb.push(Envelope::new(1, 1, vec![7u8]));
            let got = recv.join().unwrap();
            match got {
                Some(env) => assert_eq!(env.into_data::<u8>(), vec![7]),
                None => assert_eq!(mb.len(), 1),
            }
        }
    }

    #[test]
    fn posted_recv_claims_queued_then_future_messages() {
        let mb = Mailbox::new();
        mb.push(Envelope::new(0, 9, vec![1u16]));
        let first = mb.post_recv(0, 9);
        // The queued message moved into the slot: the queue is empty.
        assert!(mb.is_empty());
        assert_eq!(mb.try_claim(first).unwrap().into_data::<u16>(), vec![1]);
        assert!(mb.try_claim(first).is_none());
        // A slot posted before the message arrives gets the deposit.
        let second = mb.post_recv(0, 9);
        assert!(mb.try_claim(second).is_none());
        mb.push(Envelope::new(0, 9, vec![2u16]));
        assert!(mb.is_empty());
        assert_eq!(mb.try_claim(second).unwrap().into_data::<u16>(), vec![2]);
    }

    #[test]
    fn posted_slots_match_in_post_order() {
        let mb = Mailbox::new();
        let a = mb.post_recv(3, 1);
        let b = mb.post_recv(3, 1);
        mb.push(Envelope::new(3, 1, vec![10u8]));
        mb.push(Envelope::new(3, 1, vec![20u8]));
        assert_eq!(mb.try_claim(a).unwrap().into_data::<u8>(), vec![10]);
        assert_eq!(mb.try_claim(b).unwrap().into_data::<u8>(), vec![20]);
    }

    #[test]
    fn cancelled_post_requeues_deposit_in_arrival_order() {
        let mb = Mailbox::new();
        let slot = mb.post_recv(2, 2);
        mb.push(Envelope::new(2, 2, vec![1u8]));
        mb.push(Envelope::new(2, 2, vec![2u8]));
        mb.cancel_post(slot);
        // The deposited message went back in *front* of the younger one.
        assert_eq!(mb.len(), 2);
        assert_eq!(recv(&mb, 2, 2).into_data::<u8>(), vec![1]);
        assert_eq!(recv(&mb, 2, 2).into_data::<u8>(), vec![2]);
    }

    #[test]
    fn cancelled_post_hands_deposit_to_blocked_receiver() {
        // Regression (cancel-after-rendezvous-handshake hang): a receiver
        // that registers while the envelope sits in a posted slot must be
        // woken when the slot is cancelled, not sleep until timeout.
        let mb = Arc::new(Mailbox::new());
        let slot = mb.post_recv(2, 2);
        mb.push(Envelope::new(2, 2, vec![9u8]));
        let mb2 = Arc::clone(&mb);
        let blocked = std::thread::spawn(move || {
            mb2.recv_matching_timeout(2, 2, mb2.interrupt_seq(), Duration::from_secs(5))
                .map(|e| e.into_data::<u8>())
        });
        // Give the receiver time to register as a consumer.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        mb.cancel_post(slot);
        let got = blocked.join().unwrap();
        assert_eq!(got.unwrap(), vec![9]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "receiver slept through the cancel handoff"
        );
    }

    #[test]
    fn interrupt_wakes_blocked_receivers_early() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let since = mb.interrupt_seq();
        let blocked = std::thread::spawn(move || {
            mb2.recv_matching_timeout(1, 1, since, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        mb.interrupt();
        let got = blocked.join().unwrap();
        assert!(got.is_none());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "interrupt did not cut the wait short"
        );
    }

    #[test]
    fn waits_against_a_stale_snapshot_return_at_once() {
        // News that lands after the caller's snapshot but before it
        // sleeps must not be slept through.
        let mb = Mailbox::new();
        let slot = mb.post_recv(0, 7);
        let since = mb.interrupt_seq();
        mb.interrupt();
        let t0 = std::time::Instant::now();
        let long = Duration::from_secs(30);
        assert!(mb.recv_matching_timeout(1, 1, since, long).is_none());
        assert!(mb.wait_claim(slot, since, long).is_none());
        assert!(mb.wait_any_posted(&[slot], since, long).is_none());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn interrupt_wakes_claim_and_watcher_waits() {
        let mb = Arc::new(Mailbox::new());
        let slot = mb.post_recv(0, 7);
        let since = mb.interrupt_seq();
        let mb2 = Arc::clone(&mb);
        let claim =
            std::thread::spawn(move || mb2.wait_claim(slot, since, Duration::from_secs(30)));
        let mb3 = Arc::clone(&mb);
        let any = std::thread::spawn(move || {
            mb3.wait_any_posted(&[slot], since, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(30));
        mb.interrupt();
        assert!(claim.join().unwrap().is_none());
        assert!(any.join().unwrap().is_none());
        // The slot itself stays posted — only the waits were cut short.
        mb.push(Envelope::new(0, 7, vec![1u8]));
        assert!(mb.try_claim(slot).is_some());
    }

    #[test]
    fn wait_claim_wakes_on_deposit() {
        let mb = Arc::new(Mailbox::new());
        let slot = mb.post_recv(4, 4);
        let mb2 = Arc::clone(&mb);
        let waiter = std::thread::spawn(move || {
            mb2.wait_claim(slot, mb2.interrupt_seq(), Duration::from_secs(5))
                .map(|e| e.into_data::<u32>())
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.push(Envelope::new(4, 4, vec![77u32]));
        assert_eq!(waiter.join().unwrap(), Some(vec![77]));
    }

    #[test]
    fn wait_any_posted_wakes_on_any_deposit() {
        let mb = Arc::new(Mailbox::new());
        let a = mb.post_recv(0, 1);
        let b = mb.post_recv(0, 2);
        let since = mb.interrupt_seq();
        assert_eq!(mb.wait_any_posted(&[a, b], since, Duration::from_millis(10)), None);
        let mb2 = Arc::clone(&mb);
        let waiter = std::thread::spawn(move || {
            mb2.wait_any_posted(&[a, b], since, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.push(Envelope::new(0, 2, vec![5u8]));
        assert_eq!(waiter.join().unwrap(), Some(1));
        // The ready slot is reported, not claimed.
        assert_eq!(mb.try_claim(b).unwrap().into_data::<u8>(), vec![5]);
        mb.cancel_post(a);
    }

    #[test]
    fn blocked_receiver_beats_younger_posted_slot() {
        // Consumer matching is FIFO across blocked receives and posted
        // slots: the older blocked receive gets the first message.
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let blocked = std::thread::spawn(move || recv(&mb2, 6, 6).into_data::<u8>());
        // Give the blocked receive time to register.
        std::thread::sleep(Duration::from_millis(20));
        let slot = mb.post_recv(6, 6);
        mb.push(Envelope::new(6, 6, vec![1u8]));
        mb.push(Envelope::new(6, 6, vec![2u8]));
        assert_eq!(blocked.join().unwrap(), vec![1]);
        assert_eq!(mb.try_claim(slot).unwrap().into_data::<u8>(), vec![2]);
    }
}
