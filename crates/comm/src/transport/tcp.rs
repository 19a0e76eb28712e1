//! Self-healing TCP transport: sequence-numbered, CRC-checked frames
//! over one duplex stream per rank pair, with per-link send windows,
//! ack/replay, application-level heartbeats, and reconnect with capped
//! exponential backoff.
//!
//! ## Reliability layer
//!
//! Every steady-state frame on a stream is a `u32` length followed by
//! either a **MSG** (`0x10 | seq u64 | crc32c u32 | inner wire frame`)
//! or a **HB** (`0x12 | cumulative ack u64`). Each directed link keeps a
//! send window of unacked MSG frames; acks prune it, and a go-back-N
//! retransmit timer replays the window when acks stall. The receiver
//! applies frames strictly in sequence (duplicates and out-of-order
//! futures are discarded), so a frame the chaos interposer drops,
//! corrupts, or duplicates on the wire is healed *below* the
//! application: the CRC rejects mangled bytes, the replay timer
//! retransmits, and the seq check deduplicates.
//!
//! Acks are cumulative and ride HB frames. The receiving side sends one
//! every heartbeat period and also whenever [`ACK_EVERY_BYTES`] of data
//! have been delivered since the last, so a window holds what the
//! socket buffers hold plus that much, whatever the heartbeat period.
//!
//! ## One pass over the payload
//!
//! A MSG frame is built once, length prefix included: the sender
//! reserves the [`HEADER`], [`wire::encode_data_into`] appends the inner
//! frame behind it (the one copy of the payload), the CRC-32C is patched
//! in, the buffer goes to the socket as it is and then *moves* into the
//! send window, where replay writes the same bytes again. The receiver
//! reads into the free end of one buffer per stream, walks complete
//! frames with a cursor, sums each where it lies and copies the payload
//! out once, into the envelope.
//!
//! ## Who reads a stream
//!
//! Sockets are nonblocking. The streams a rank reads are kept with that
//! rank ([`Inbound`]), not with a thread. A rank that waits for a
//! message reads its own streams: [`Progress::progress`] drains them on
//! the rank's thread — the same CRC, sequence, ack and tear handling —
//! and, when nothing new has arrived, sleeps in `poll(2)` on those
//! sockets and on the rank's doorbell. A frame therefore reaches its
//! mailbox on the thread that waits for it, with no hand-off between
//! threads. The event loop drains the streams of ranks that are *not*
//! waiting (busy computing, finished, or blocked in a plain mailbox
//! wait), so their peers' writes and heartbeats keep moving; it leaves
//! a waiting rank's streams alone.
//!
//! The doorbell is one end of a socket pair, readable while a ring is
//! pending. [`Registry`] rings every doorbell when it interrupts the
//! mailboxes (abort, failure, revoke), so a rank asleep on its sockets
//! wakes at once, not at the end of its poll slice. A reconnect rings
//! the owner's doorbell so it polls the fresh stream. Each rank also
//! counts the frames delivered to it; a waiter reads that count before
//! it looks in its mailbox and does not sleep once it has moved. That
//! closes the one race left — the event loop delivering for a rank just
//! as it starts to wait — and the loop rings the doorbell when it finds
//! that the rank began waiting while it drained.
//!
//! ## Locks
//!
//! **No lock is held across `poll(2)`, and the event loop never waits
//! on a lock a sender can hold across socket I/O.** A rank's reader
//! list is locked by whoever drains it, for the drain only; the event
//! loop only `try_lock`s it, and a waiting rank gathers its sockets
//! under the lock and releases it before it sleeps. Each link has two
//! more locks. `order` is the
//! write-order lock: a sender holds it from taking a sequence number
//! until its frame is written and in the window, yielding through
//! `WouldBlock` for as long as the peer takes to drain; the event loop
//! only ever `try_lock`s it (heartbeats and replay wait for the next
//! tick when a sender is mid-frame). `state` guards the window, ack
//! point, installed stream and reconnect clock; it is held for field
//! updates only, never across a write that can wait, so the event loop
//! and a draining rank take it freely. Liveness stamps (`last_heard`,
//! miss counts) are atomics touched once per read batch. Lock order is
//! readers, then `order`, then `state` (a `try_lock` never waits, so
//! the event loop's are exempt); a reconnect installs its stream under
//! `state` and hands the owner its reader after.
//!
//! The event loop's own writes ([`pump`]) are nonblocking: what the
//! socket will not take now — the tail of a half-written frame, the
//! rest of a replay — is kept and finished on a later tick or by the
//! next sender. The loop wakes every [`TEND_PERIOD`] to drain the
//! streams of ranks that are not waiting and to run heartbeats,
//! retransmit timers, reconnect dials and the listener; between ticks
//! it sleeps.
//!
//! ## Link state machine (DESIGN.md §16)
//!
//! Established → Suspect (heartbeat silence past the miss threshold) →
//! Reconnecting (stream torn; the higher-ranked end re-dials the
//! lower-ranked end's listener with capped exponential backoff +
//! jitter, sending a `RECON` handshake naming both ranks and its
//! highest delivered seq) → back to Established (window replayed from
//! the peer's ack point) or → Down (backoff budget exhausted). A link
//! that goes Down feeds [`Registry::record_link_down`] — tagged with a
//! typed [`CommError::LinkDown`] — so ULFM revoke/shrink recovery
//! fires on genuine peer death instead of hanging, while transient
//! tears (including injected partitions) heal transparently.
//!
//! A peer that says goodbye first (a `BYE` control frame) goes Down
//! without reconnect attempts or a failure mark: its EOF is a
//! shutdown. Backend threads never panic on wire errors — corrupt
//! frames are discarded (CRC) or tear the link for reconnection.
//!
//! Like the shmem backend, two modes share the code: **loopback**
//! (ranks are threads, both socket ends live in this process) and
//! **per-process** (a parent/child rendezvous builds a full mesh;
//! every process keeps its listener and the address table afterwards
//! so torn links can be re-dialed).

use super::chaos::{FrameFate, LinkChaos};
use super::crc32c::crc32c;
use super::{wire, CtrlMsg, LinkStats, Progress, Route, Transport, TransportKind};
use crate::config::CommConfig;
use crate::error::CommError;
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steady-state frame tags (first byte after the `u32` length).
const TAG_MSG: u8 = 0x10;
const TAG_HB: u8 = 0x12;
const TAG_RECON: u8 = 0x13;

/// Stored layout of a MSG frame, as it crosses the socket and as it
/// sits in the send window:
/// `len u32 | TAG_MSG | seq u64 | crc32c u32 | inner`, with `len`
/// counting everything after itself and the CRC covering `inner`.
const HEADER: usize = 17;
const SEQ_AT: usize = 5;
const CRC_AT: usize = 13;

/// Largest stream frame either side accepts. The prefix arrives from
/// outside the process, so it is bounded before a buffer is sized
/// from it.
const MAX_FRAME: usize = 1 << 30;

/// The receiving side acks after delivering this much data, without
/// waiting for the heartbeat period.
const ACK_EVERY_BYTES: u64 = 1 << 20;

/// How often the event loop wakes: to drain the streams of ranks that
/// are not waiting, and for its timed duties — heartbeats, acks,
/// retransmits, reconnect dials, the listener.
const TEND_PERIOD: Duration = Duration::from_millis(1);

/// Receive-buffer sizing: the initial size, and the least free space a
/// read is given.
const INBOX_BYTES: usize = 64 * 1024;
const READ_MIN: usize = 16 * 1024;

/// Reads taken from one stream per drain, so one busy peer cannot hold
/// off the others or the timed duties.
const READS_PER_SWEEP: usize = 8;

/// Per-dial allowance for the RECON handshake round-trip.
const RECON_IO_TIMEOUT: Duration = Duration::from_millis(250);

/// Write `bytes` and return how many went out. With `wait`, yield
/// through `WouldBlock` until all of them have (every socket here is
/// nonblocking once its link exists); without, stop at the first.
fn write_bytes(mut stream: &TcpStream, bytes: &[u8], wait: bool) -> io::Result<usize> {
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && wait => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(off)
}

/// Write all of `bytes`, however long the peer takes to drain them.
/// For senders and handshakes; the event loop uses [`write_some`].
fn write_all(stream: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    write_bytes(stream, bytes, true).map(|_| ())
}

/// Write as much of `bytes` as the socket takes right now; never waits.
fn write_some(stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    write_bytes(stream, bytes, false)
}

/// Write one length-prefixed handshake frame.
fn write_frame(stream: &TcpStream, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    write_all(stream, &buf)
}

/// Read exactly `buf.len()` bytes, spinning through `WouldBlock` until
/// `deadline`. Handshake-time helper; steady-state reads go through the
/// nonblocking event loop instead.
fn read_exact_deadline(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        if Instant::now() > deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A waiting rank's sleep: `poll(2)` on its sockets and its doorbell.
#[cfg(unix)]
mod sys {
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }

    impl PollFd {
        /// Wait for `fd` to turn readable (or hang up, or fail).
        pub fn readable(fd: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: fd.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }

        /// Whether the last [`wait`] found this entry ready.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// Sleep until an entry of `fds` is ready or `timeout` (rounded up
    /// to whole milliseconds) passes. Returns whether any entry is.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed array of `pollfd`s,
        // and `nfds` is its length.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) > 0 }
    }

    /// A wake-up any thread can send a rank asleep in [`wait`]: one end
    /// of a socket pair, readable while a ring is pending.
    pub struct Doorbell {
        bell: UnixStream,
        clapper: UnixStream,
    }

    impl Doorbell {
        pub fn new() -> io::Result<Doorbell> {
            let (bell, clapper) = UnixStream::pair()?;
            bell.set_nonblocking(true)?;
            clapper.set_nonblocking(true)?;
            Ok(Doorbell { bell, clapper })
        }

        /// Ring. A full socket buffer means a ring is pending already.
        pub fn ring(&self) {
            let _ = (&self.bell).write(&[1]);
        }

        /// The entry a sleeper polls to hear a ring.
        pub fn poll_fd(&self) -> PollFd {
            PollFd::readable(&self.clapper)
        }

        /// Take every pending ring.
        pub fn clear(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.clapper).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

/// Without `poll(2)` a waiting rank naps a tick between drains and
/// hears no doorbell.
#[cfg(not(unix))]
mod sys {
    use std::time::Duration;

    pub struct PollFd;

    impl PollFd {
        pub fn readable<T>(_: &T) -> PollFd {
            PollFd
        }

        pub fn ready(&self) -> bool {
            false
        }
    }

    pub fn wait(_: &mut [PollFd], timeout: Duration) -> bool {
        std::thread::sleep(timeout.min(super::TEND_PERIOD));
        true
    }

    pub struct Doorbell;

    impl Doorbell {
        pub fn new() -> std::io::Result<Doorbell> {
            Ok(Doorbell)
        }

        pub fn ring(&self) {}

        pub fn poll_fd(&self) -> PollFd {
            PollFd
        }

        pub fn clear(&self) {}
    }
}

/// Build a MSG frame in one buffer: reserve the header, let `fill`
/// append the inner frame (`inner_len` bytes, a capacity hint) behind
/// it, then fill in length, tag, and the CRC-32C of the inner bytes.
/// The sequence number is stamped later, under the link's order lock.
fn msg_frame(inner_len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER + inner_len);
    frame.resize(HEADER, 0);
    fill(&mut frame);
    assert!(
        frame.len() <= MAX_FRAME,
        "a {}-byte message exceeds the tcp transport's frame limit",
        frame.len()
    );
    let crc = crc32c(&frame[HEADER..]);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4] = TAG_MSG;
    frame[CRC_AT..HEADER].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn seq_of(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[SEQ_AT..CRC_AT].try_into().expect("8-byte seq"))
}

/// A HB frame, length prefix included.
fn hb_frame(ack: u64) -> [u8; 13] {
    let mut out = [0u8; 13];
    out[..4].copy_from_slice(&9u32.to_le_bytes());
    out[4] = TAG_HB;
    out[5..].copy_from_slice(&ack.to_le_bytes());
    out
}

fn encode_recon(from: usize, to: usize, last_delivered: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(TAG_RECON);
    out.extend_from_slice(&(from as u64).to_le_bytes());
    out.extend_from_slice(&(to as u64).to_le_bytes());
    out.extend_from_slice(&last_delivered.to_le_bytes());
    out
}

fn decode_recon(frame: &[u8]) -> io::Result<(usize, usize, u64)> {
    if frame.len() != 25 || frame[0] != TAG_RECON {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad RECON frame"));
    }
    let f = |i: usize| u64::from_le_bytes(frame[i..i + 8].try_into().unwrap());
    Ok((f(1) as usize, f(9) as usize, f(17)))
}

/// Flip bytes inside a MSG frame's inner region, leaving the header
/// (length, tag, seq, CRC) intact so the stream framing survives and
/// the receiver's CRC check is what catches the damage. Its own
/// inverse: the sender mangles the frame, writes it, and restores it
/// before it enters the window.
fn flip_inner_bytes(frame: &mut [u8]) {
    let start = HEADER.min(frame.len());
    for b in frame[start..].iter_mut().take(8) {
        *b ^= 0xFF;
    }
}

/// Aggregate link-health counters, shared with the event loop.
#[derive(Default)]
struct Stats {
    reconnects: AtomicU64,
    heartbeat_misses: AtomicU64,
    replayed_frames: AtomicU64,
    last_reconnect_ns: AtomicU64,
}

/// Timing knobs resolved from [`CommConfig`] at construction.
#[derive(Clone, Copy)]
struct Knobs {
    hb_period: Duration,
    hb_misses: u32,
    attempts: u32,
    backoff: Duration,
    /// Ack-stall retransmit timeout (go-back-N).
    rto: Duration,
    /// How long the accept side of a torn link waits for a re-dial
    /// before declaring it Down — sized to cover the dialer's whole
    /// backoff schedule plus handshake allowances.
    reconnect_window: Duration,
}

impl Knobs {
    fn from_config(config: &CommConfig) -> Knobs {
        let mut window = config.heartbeat_period;
        let mut d = config.reconnect_backoff;
        for _ in 0..config.reconnect_attempts {
            window += d + RECON_IO_TIMEOUT;
            d = (d * 2).min(config.reconnect_backoff * 32);
        }
        Knobs {
            hb_period: config.heartbeat_period,
            hb_misses: config.heartbeat_misses,
            attempts: config.reconnect_attempts,
            backoff: config.reconnect_backoff,
            rto: config.heartbeat_period * 2,
            reconnect_window: window,
        }
    }
}

/// Window, ack point, installed stream and reconnect clock of one
/// directed link. Guarded by `Link::state`, which is never held across
/// a write that can wait (see the module docs).
struct State {
    /// The installed stream, shared with the link's reader; `None`
    /// while torn. Nonblocking.
    stream: Option<Arc<TcpStream>>,
    /// Highest cumulative ack heard from the peer.
    acked: u64,
    /// Unacked MSG frames in their stored layout, consecutive
    /// sequence numbers, oldest first.
    window: VecDeque<Vec<u8>>,
    /// How many leading window frames the installed stream has been
    /// given. Equal to `window.len()` in steady state; a reconnect or an
    /// ack stall resets it to zero and [`pump`] replays from there.
    resend: usize,
    /// Unwritten tail of the frame the event loop last started; goes
    /// out before anything else does.
    stash: Vec<u8>,
    /// When the stream tore (drives the backoff / give-up schedule).
    torn_at: Option<Instant>,
    /// Dials made since the tear.
    attempts_made: u32,
    /// A dial thread is in flight; its result lands in
    /// `Shared::dial_results`.
    dialing: bool,
    /// Earliest time for the next dial.
    next_dial: Instant,
    /// Terminal state: no more reconnects (peer dead or said BYE).
    down: bool,
    /// Last time we sent a heartbeat.
    last_hb: Instant,
    /// Last time the window made progress (ack advance / retransmit).
    last_progress: Instant,
}

impl State {
    /// Drop every window frame a cumulative `ack` covers.
    fn prune(&mut self, ack: u64) {
        self.acked = self.acked.max(ack);
        while self.window.front().is_some_and(|f| seq_of(f) <= ack) {
            self.window.pop_front();
            self.resend = self.resend.saturating_sub(1);
        }
    }
}

/// One directed link endpoint this process owns: `owner` (local) writes
/// toward `peer`, and the paired reader delivers the reverse direction.
struct Link {
    owner: usize,
    peer: usize,
    /// Where to re-dial after a tear; `None` means the far end dials us
    /// (the higher-ranked endpoint dials the lower-ranked listener).
    dial_addr: Option<String>,
    /// Zero of the `last_heard_ns` clock.
    born: Instant,
    state: Mutex<State>,
    /// Write order: the sequence number the next new frame gets (the
    /// first is 1). Whoever holds this lock owns the tail of the byte
    /// stream; senders hold it across their socket write, the event
    /// loop only `try_lock`s it.
    order: Mutex<u64>,
    /// Highest seq applied from the peer (receive side).
    last_delivered: AtomicU64,
    /// Delivered MSG bytes no ack of ours covers yet. Event loop only.
    unacked_bytes: AtomicU64,
    /// When bytes last arrived from the peer, in ns since `born`.
    last_heard_ns: AtomicU64,
    /// Heartbeat periods of silence already counted as misses.
    misses_counted: AtomicU32,
    /// Peer announced a clean shutdown; its EOF is not a failure.
    saw_bye: AtomicBool,
    /// Bumped on every tear and (re)install so stale readers don't tear
    /// the fresh connection.
    generation: AtomicU64,
    /// Test hook: suppress heartbeat sends so peers observe silence.
    mute: AtomicBool,
}

impl Link {
    fn new(owner: usize, peer: usize, dial_addr: Option<String>, stream: TcpStream) -> io::Result<(Arc<Link>, Reader)> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let stream = Arc::new(stream);
        let now = Instant::now();
        let link = Arc::new(Link {
            owner,
            peer,
            dial_addr,
            born: now,
            state: Mutex::new(State {
                stream: Some(Arc::clone(&stream)),
                acked: 0,
                window: VecDeque::new(),
                resend: 0,
                stash: Vec::new(),
                torn_at: None,
                attempts_made: 0,
                dialing: false,
                next_dial: now,
                down: false,
                last_hb: now,
                last_progress: now,
            }),
            order: Mutex::new(1),
            last_delivered: AtomicU64::new(0),
            unacked_bytes: AtomicU64::new(0),
            last_heard_ns: AtomicU64::new(0),
            misses_counted: AtomicU32::new(0),
            saw_bye: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            mute: AtomicBool::new(false),
        });
        let reader = Reader::new(&link, 0, stream);
        Ok((link, reader))
    }

    /// Record that bytes arrived from the peer at `now`.
    fn heard(&self, now: Instant) {
        let ns = now.duration_since(self.born).as_nanos() as u64;
        self.last_heard_ns.store(ns, Ordering::Relaxed);
        self.misses_counted.store(0, Ordering::Relaxed);
    }

    /// Tear the connection: close the socket (the peer sees EOF, and a
    /// sender still writing to it gets an error instead of waiting) and
    /// start the reconnect clock. Idempotent.
    fn tear(&self, st: &mut State, now: Instant) {
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if st.torn_at.is_none() {
            st.torn_at = Some(now);
            st.attempts_made = 0;
            st.next_dial = now;
        }
        self.generation.fetch_add(1, Ordering::Release);
        self.misses_counted.store(0, Ordering::Relaxed);
    }
}

/// Receive buffer of one stream. Bytes land at `tail`, complete frames
/// are consumed from `head`, and `buf` stays fully initialised so a
/// read goes straight into its free end.
struct Inbox {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Inbox {
    /// Length prefix of the frame at `head`, once all four bytes of it
    /// have arrived.
    fn frame_len(&self) -> Option<usize> {
        let prefix = self.buf[self.head..self.tail].first_chunk::<4>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    /// The free end to read into: room for the rest of the frame at
    /// `head` when its length is known, [`READ_MIN`] bytes otherwise.
    /// Unconsumed bytes move to the front only when the end of the
    /// buffer is reached, and the buffer grows only for a frame larger
    /// than itself.
    fn spare(&mut self) -> &mut [u8] {
        let need = match self.frame_len() {
            Some(len) => 4 + len.min(MAX_FRAME),
            None => self.tail - self.head + READ_MIN,
        };
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        &mut self.buf[self.tail..]
    }
}

/// One nonblocking read half: the stream a link's peer writes toward
/// its owner, drained by the owner while it waits and by the event loop
/// otherwise.
struct Reader {
    link: Arc<Link>,
    generation: u64,
    stream: Arc<TcpStream>,
    inbox: Inbox,
    open: bool,
}

impl Reader {
    fn new(link: &Arc<Link>, generation: u64, stream: Arc<TcpStream>) -> Reader {
        Reader {
            link: Arc::clone(link),
            generation,
            stream,
            inbox: Inbox {
                buf: vec![0; INBOX_BYTES],
                head: 0,
                tail: 0,
            },
            open: true,
        }
    }
}

/// The inbound streams of one rank hosted here, and what it sleeps on
/// while it waits for them. See the module docs.
struct Inbound {
    rank: usize,
    /// The rank's readers, one per open stream. Locked by whoever
    /// drains them, for the drain only.
    readers: Mutex<Vec<Reader>>,
    /// MSG frames applied to the rank's mailboxes and ledger so far.
    delivered: AtomicU64,
    /// Threads of the rank inside [`Progress::progress`]. The event loop
    /// leaves the streams of a waiting rank alone.
    waiting: AtomicU32,
    doorbell: sys::Doorbell,
}

impl Inbound {
    fn new(rank: usize) -> io::Result<Inbound> {
        Ok(Inbound {
            rank,
            readers: Mutex::new(Vec::new()),
            delivered: AtomicU64::new(0),
            waiting: AtomicU32::new(0),
            doorbell: sys::Doorbell::new()?,
        })
    }

    /// Drain every open stream once — at most [`READS_PER_SWEEP`] reads
    /// each — and drop the closed ones. Returns whether bytes arrived.
    fn drain(&self, readers: &mut Vec<Reader>, registry: &Registry, now: Instant) -> bool {
        let mut heard = false;
        for reader in readers.iter_mut() {
            if reader.generation != reader.link.generation.load(Ordering::Acquire) {
                reader.open = false; // superseded by a tear or reconnect
            }
            if reader.open {
                heard |= drain_reader(reader, registry, now, &self.delivered);
            }
        }
        readers.retain(|r| r.open);
        heard
    }

    /// The event loop's share: drain the streams unless the rank is
    /// waiting (it reads them itself) or draining them right now. A rank
    /// that began to wait during the drain may have read its count
    /// before these deliveries, so it is rung.
    fn sweep(&self, registry: &Registry, now: Instant) -> bool {
        if self.waiting.load(Ordering::SeqCst) > 0 {
            return false;
        }
        let Some(mut readers) = self.readers.try_lock() else {
            return false;
        };
        let before = self.delivered.load(Ordering::SeqCst);
        let heard = self.drain(&mut readers, registry, now);
        drop(readers);
        if self.delivered.load(Ordering::SeqCst) != before && self.waiting.load(Ordering::SeqCst) > 0 {
            self.doorbell.ring();
        }
        heard
    }
}

/// What a waiting rank sleeps on: its sockets, held open until it
/// wakes, then its doorbell. One per thread, so a wait allocates
/// nothing once the first has sized it.
#[derive(Default)]
struct PollSet {
    fds: Vec<sys::PollFd>,
    streams: Vec<Arc<TcpStream>>,
}

thread_local! {
    static POLL_SET: RefCell<PollSet> = RefCell::default();
}

/// Everything the event loop shares with the transport facade.
struct Shared {
    /// `(owner_world, peer_world) -> link`, fixed after construction.
    links: HashMap<(usize, usize), Arc<Link>>,
    /// Kept past rendezvous so torn links can re-dial us. Nonblocking.
    listener: Option<TcpListener>,
    stop: AtomicBool,
    stats: Stats,
    knobs: Knobs,
    chaos: Option<Arc<LinkChaos>>,
    /// Results from detached dial threads, drained by the event loop.
    /// Dials must not block that loop: in loopback mode the same loop
    /// services the listener the dial is connecting to.
    dial_results: Mutex<Vec<DialResult>>,
    /// The inbound side of every world rank hosted by this process (all
    /// of them in loopback).
    inbound: Vec<Inbound>,
}

impl Shared {
    fn inbound_of(&self, rank: usize) -> Option<&Inbound> {
        self.inbound.iter().find(|i| i.rank == rank)
    }
}

/// `(owner, peer, outcome)` from one detached reconnect dial; `Ok`
/// carries the fresh stream and the peer's last-delivered point.
type DialResult = (usize, usize, io::Result<(TcpStream, u64)>);

/// The TCP transport. See the module docs for the two modes.
pub struct TcpTransport {
    shared: Arc<Shared>,
    event_loop: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Collects links/readers during rendezvous, then freezes into `Shared`.
struct MeshBuilder {
    links: HashMap<(usize, usize), Arc<Link>>,
    readers: Vec<Reader>,
}

impl MeshBuilder {
    fn new() -> MeshBuilder {
        MeshBuilder {
            links: HashMap::new(),
            readers: Vec::new(),
        }
    }

    fn add_link(
        &mut self,
        owner: usize,
        peer: usize,
        dial_addr: Option<String>,
        stream: TcpStream,
    ) -> io::Result<()> {
        let (link, reader) = Link::new(owner, peer, dial_addr, stream)?;
        self.links.insert((owner, peer), link);
        self.readers.push(reader);
        Ok(())
    }

    fn finish(
        self,
        local: Vec<usize>,
        listener: Option<TcpListener>,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        let inbound = local.iter().map(|&rank| Inbound::new(rank)).collect::<io::Result<Vec<_>>>()?;
        for reader in self.readers {
            let owner = reader.link.owner;
            let slot = inbound.iter().find(|i| i.rank == owner).expect("links are owned by local ranks");
            slot.readers.lock().push(reader);
        }
        Ok(TcpTransport {
            shared: Arc::new(Shared {
                links: self.links,
                listener,
                stop: AtomicBool::new(false),
                stats: Stats::default(),
                knobs: Knobs::from_config(config),
                chaos,
                dial_results: Mutex::new(Vec::new()),
                inbound,
            }),
            event_loop: Mutex::new(None),
        })
    }
}

impl TcpTransport {
    /// Build a loopback transport: all ranks are threads here, and both
    /// ends of every pair's socket live in this process. The listener
    /// stays open for reconnects (the higher-ranked end of a torn pair
    /// re-dials it).
    pub fn loopback(
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut mesh = MeshBuilder::new();
        for i in 0..num_ranks {
            for j in (i + 1)..num_ranks {
                let a = TcpStream::connect(addr.as_str())?;
                let (b, _) = listener.accept()?;
                // `a` is rank i's end of the (i, j) pair, `b` is rank
                // j's: writes into `a` surface on `b` and vice versa.
                // The higher-ranked end owns the dial address.
                mesh.add_link(i, j, None, a)?;
                mesh.add_link(j, i, Some(addr.clone()), b)?;
            }
        }
        mesh.finish((0..num_ranks).collect(), Some(listener), config, chaos)
    }

    /// Parent side of the per-process rendezvous: accept a connection
    /// from every child (bounded by the handshake deadline, so a child
    /// that crashes during startup yields a typed error instead of a
    /// hang), learn its listen address, then broadcast the full table
    /// so children can mesh among themselves.
    pub fn parent(
        listener: TcpListener,
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        listener.set_nonblocking(true)?;
        let mut mesh = MeshBuilder::new();
        let mut tab: HashMap<usize, String> = HashMap::new();
        let mut links: Vec<(usize, TcpStream)> = Vec::new();
        for _ in 1..num_ranks {
            let mut stream = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "rendezvous timed out: {}/{} children connected within {:?}",
                                    links.len(),
                                    num_ranks - 1,
                                    config.handshake_timeout
                                ),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            let (rank, listen_addr) = read_hello(&mut stream, deadline)?;
            tab.insert(rank, listen_addr);
            links.push((rank, stream));
        }
        let table = encode_table(&tab);
        for (_, stream) in &links {
            stream.set_nodelay(true)?;
            write_frame(stream, &table)?;
        }
        for (rank, stream) in links {
            // Rank 0 is the lowest end of every parent link: children
            // re-dial us, we never dial.
            mesh.add_link(0, rank, None, stream)?;
        }
        mesh.finish(vec![0], Some(listener), config, chaos)
    }

    /// Child side of the rendezvous: dial the parent, announce our own
    /// listen address, receive the sibling table, then dial every
    /// lower-ranked sibling and accept from every higher-ranked one.
    /// The dial direction (higher dials lower) is exactly the reconnect
    /// rule, so the addresses we used here are the ones we keep.
    pub fn child(
        parent_addr: &str,
        my_rank: usize,
        num_ranks: usize,
        config: &CommConfig,
        chaos: Option<Arc<LinkChaos>>,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut mesh = MeshBuilder::new();

        let mut parent = TcpStream::connect(parent_addr)?;
        write_hello(&parent, my_rank, &listener.local_addr()?.to_string())?;
        let table = decode_table(&read_one_frame(&mut parent, deadline)?)?;
        mesh.add_link(my_rank, 0, Some(parent_addr.to_owned()), parent)?;

        for peer in 1..my_rank {
            let addr = table.get(&peer).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("rank {peer} not in table"))
            })?;
            let stream = TcpStream::connect(addr.as_str())?;
            write_hello(&stream, my_rank, "")?;
            mesh.add_link(my_rank, peer, Some(addr.clone()), stream)?;
        }
        listener.set_nonblocking(true)?;
        for _ in (my_rank + 1)..num_ranks {
            let mut stream = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {my_rank}: rendezvous timed out waiting for higher siblings"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            let (rank, _) = read_hello(&mut stream, deadline)?;
            mesh.add_link(my_rank, rank, None, stream)?;
        }
        mesh.finish(vec![my_rank], Some(listener), config, chaos)
    }
}

fn write_hello(stream: &TcpStream, rank: usize, listen_addr: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(10 + listen_addr.len());
    frame.extend_from_slice(&(rank as u64).to_le_bytes());
    frame.extend_from_slice(&(listen_addr.len() as u16).to_le_bytes());
    frame.extend_from_slice(listen_addr.as_bytes());
    write_frame(stream, &frame)
}

fn read_hello(stream: &mut TcpStream, deadline: Instant) -> io::Result<(usize, String)> {
    let frame = read_one_frame(stream, deadline)?;
    if frame.len() < 10 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short hello"));
    }
    let rank = u64::from_le_bytes(frame[0..8].try_into().unwrap()) as usize;
    let len = u16::from_le_bytes(frame[8..10].try_into().unwrap()) as usize;
    let addr = std::str::from_utf8(&frame[10..10 + len])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .to_owned();
    Ok((rank, addr))
}

fn read_one_frame(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    read_exact_deadline(stream, &mut len_bytes, deadline)?;
    let mut frame = vec![0u8; u32::from_le_bytes(len_bytes) as usize];
    read_exact_deadline(stream, &mut frame, deadline)?;
    Ok(frame)
}

fn encode_table(tab: &HashMap<usize, String>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tab.len() as u32).to_le_bytes());
    for (rank, addr) in tab {
        out.extend_from_slice(&(*rank as u64).to_le_bytes());
        out.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        out.extend_from_slice(addr.as_bytes());
    }
    out
}

fn decode_table(frame: &[u8]) -> io::Result<HashMap<usize, String>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
    let mut tab = HashMap::new();
    if frame.len() < 4 {
        return Err(bad("short table"));
    }
    let count = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    for _ in 0..count {
        if frame.len() < pos + 10 {
            return Err(bad("truncated table entry"));
        }
        let rank = u64::from_le_bytes(frame[pos..pos + 8].try_into().unwrap()) as usize;
        let len = u16::from_le_bytes(frame[pos + 8..pos + 10].try_into().unwrap()) as usize;
        pos += 10;
        if frame.len() < pos + len {
            return Err(bad("truncated table address"));
        }
        let addr = std::str::from_utf8(&frame[pos..pos + len])
            .map_err(|_| bad("non-utf8 address"))?
            .to_owned();
        pos += len;
        tab.insert(rank, addr);
    }
    Ok(tab)
}

/// Install a fresh stream into a link: prune the window to the peer's
/// delivered point, mark the rest for replay (which [`pump`] carries
/// out, starting on the next tick), and hand the owner a reader of the
/// new generation, ringing it in case it sleeps on the old streams.
/// `torn_at` (if any) feeds the reconnect-latency stat. Takes the state
/// lock, then (after it) the owner's reader list: a sender still inside
/// a write on the old socket fails out of it, finds its stream no longer
/// installed, and leaves its frame to the replay.
fn install_stream(shared: &Shared, link: &Arc<Link>, stream: TcpStream, peer_delivered: u64) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let stream = Arc::new(stream);
    let now = Instant::now();
    let stats = &shared.stats;
    let mut st = link.state.lock();
    if let Some(old) = st.stream.replace(Arc::clone(&stream)) {
        let _ = old.shutdown(Shutdown::Both);
    }
    st.prune(peer_delivered);
    st.resend = 0;
    st.stash.clear();
    if let Some(torn) = st.torn_at.take() {
        stats
            .last_reconnect_ns
            .store(now.duration_since(torn).as_nanos() as u64, Ordering::Relaxed);
    }
    stats.reconnects.fetch_add(1, Ordering::Relaxed);
    st.attempts_made = 0;
    st.last_hb = now;
    st.last_progress = now;
    link.heard(now);
    let generation = link.generation.fetch_add(1, Ordering::AcqRel) + 1;
    drop(st);
    let inbound = shared.inbound_of(link.owner).expect("links are owned by local ranks");
    inbound.readers.lock().push(Reader::new(link, generation, stream));
    inbound.doorbell.ring();
    Ok(())
}

/// Dial the peer's listener and run the RECON handshake. Returns the
/// fresh stream plus the peer's highest delivered seq (our replay
/// point).
fn dial_reconnect(link: &Link) -> io::Result<(TcpStream, u64)> {
    let addr = link.dial_addr.as_deref().expect("dial side has an address");
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &stream,
        &encode_recon(link.owner, link.peer, link.last_delivered.load(Ordering::Acquire)),
    )?;
    let deadline = Instant::now() + RECON_IO_TIMEOUT;
    let reply = read_one_frame(&mut stream, deadline)?;
    let (from, to, peer_delivered) = decode_recon(&reply)?;
    if from != link.peer || to != link.owner {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "RECON reply names the wrong link",
        ));
    }
    Ok((stream, peer_delivered))
}

/// Declare a link Down and report it. The registry's failure broadcast
/// comes back into this transport as `publish_ctrl`, which takes every
/// link's order lock like any sender — so the report runs on a thread
/// of its own, never on the event loop.
fn declare_down(link: &Link, st: &mut State, attempts: u32, registry: &Arc<Registry>) {
    if st.down {
        return;
    }
    st.down = true;
    st.window.clear();
    st.resend = 0;
    let err = CommError::LinkDown {
        peer: link.peer,
        attempts,
    };
    eprintln!("beatnik-comm: {err} (observed by rank {})", link.owner);
    let (registry, peer) = (Arc::clone(registry), link.peer);
    std::thread::Builder::new()
        .name("beatnik-tcp-down".into())
        .spawn(move || registry.record_link_down(peer, attempts))
        .expect("spawning the link-down reporter");
}

/// Handle every complete frame in the reader's inbox, adding the MSG
/// frames applied to `delivered` once they are in place. Returns false
/// when the stream must be torn (protocol error after a clean CRC).
fn drain_reader_frames(reader: &mut Reader, registry: &Registry, delivered: &AtomicU64) -> bool {
    let link = &reader.link;
    let inbox = &mut reader.inbox;
    let mut healthy = true;
    let mut delivered_bytes = 0;
    let mut applied = 0;
    while let Some(len) = inbox.frame_len() {
        if len > MAX_FRAME {
            eprintln!(
                "beatnik-comm: {len}-byte frame announced by rank {}; tearing link",
                link.peer
            );
            healthy = false;
            break;
        }
        let end = inbox.head + 4 + len;
        if end > inbox.tail {
            break;
        }
        // The whole stream frame, length prefix included: the stored
        // layout the offsets above describe.
        let frame = &inbox.buf[inbox.head..end];
        inbox.head = end;
        match frame.get(4).copied() {
            Some(TAG_MSG) if frame.len() >= HEADER => {
                let seq = seq_of(frame);
                let sum = u32::from_le_bytes(frame[CRC_AT..HEADER].try_into().unwrap());
                let inner = &frame[HEADER..];
                if crc32c(inner) != sum {
                    // Mangled on the wire: drop it. The sender's
                    // go-back-N timer replays everything unacked.
                    continue;
                }
                let expected = link.last_delivered.load(Ordering::Acquire) + 1;
                if seq != expected {
                    // Duplicate (seq < expected) or a gap left by a
                    // dropped frame (seq > expected): discard; replay
                    // will deliver the run in order.
                    continue;
                }
                match wire::decode(inner) {
                    Ok(wire::Frame::Ctrl(CtrlMsg::Bye(rank))) => {
                        if rank == link.peer {
                            link.saw_bye.store(true, Ordering::Release);
                        }
                    }
                    Ok(f) => wire::apply(f, registry),
                    Err(e) => {
                        // CRC passed but the payload is still not a
                        // wire frame: torn framing somewhere. Tear and
                        // replay rather than panicking the backend.
                        eprintln!(
                            "beatnik-comm: undecodable frame from rank {} ({e}); tearing link",
                            link.peer
                        );
                        healthy = false;
                        break;
                    }
                }
                link.last_delivered.store(seq, Ordering::Release);
                delivered_bytes += frame.len() as u64;
                applied += 1;
            }
            Some(TAG_HB) if frame.len() == 13 => {
                let ack = u64::from_le_bytes(frame[5..].try_into().unwrap());
                let mut st = link.state.lock();
                if ack > st.acked {
                    st.prune(ack);
                    st.last_progress = Instant::now();
                }
            }
            _ => {
                eprintln!(
                    "beatnik-comm: unknown frame tag from rank {}; tearing link",
                    link.peer
                );
                healthy = false;
                break;
            }
        }
    }
    if inbox.head == inbox.tail {
        inbox.head = 0;
        inbox.tail = 0;
    }
    link.unacked_bytes.fetch_add(delivered_bytes, Ordering::Relaxed);
    if applied > 0 {
        delivered.fetch_add(applied, Ordering::SeqCst);
    }
    healthy
}

/// Read what one stream has ready — at most [`READS_PER_SWEEP`] reads —
/// and handle the frames that completes. Returns whether any bytes
/// arrived. A read that comes back short has emptied the socket, so it
/// ends the drain without a read that would only say `WouldBlock`.
fn drain_reader(reader: &mut Reader, registry: &Registry, now: Instant, delivered: &AtomicU64) -> bool {
    let mut heard = false;
    let mut finished = false;
    for _ in 0..READS_PER_SWEEP {
        let spare = reader.inbox.spare();
        let room = spare.len();
        match (&*reader.stream).read(spare) {
            Ok(0) => finished = true,
            Ok(n) => {
                heard = true;
                reader.inbox.tail += n;
                finished = !drain_reader_frames(reader, registry, delivered);
                if n < room && !finished {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => finished = true,
        }
        if finished {
            break;
        }
    }
    let link = &reader.link;
    if heard {
        link.heard(now);
    }
    if finished {
        // EOF, a socket error or a protocol error: tear, unless a
        // reconnect already replaced this reader's stream.
        reader.open = false;
        if reader.generation == link.generation.load(Ordering::Acquire) {
            link.tear(&mut link.state.lock(), now);
        }
    }
    heard
}

/// Accept one reconnect dial on the listener: match it to the torn
/// local link, refuse it while the pair is partitioned, reply with our
/// delivered point, and install the stream.
fn accept_reconnect(shared: &Shared, mut stream: TcpStream) {
    let deadline = Instant::now() + RECON_IO_TIMEOUT;
    let Ok(frame) = read_one_frame(&mut stream, deadline) else {
        return;
    };
    let Ok((dialer, target, dialer_delivered)) = decode_recon(&frame) else {
        return;
    };
    let Some(link) = shared.links.get(&(target, dialer)) else {
        return;
    };
    if let Some(chaos) = &shared.chaos {
        if chaos.pair_partitioned(target, dialer) {
            // Still severed: close without replying; the dialer's
            // backoff schedule absorbs the refusal.
            return;
        }
    }
    if link.state.lock().down || link.saw_bye.load(Ordering::Acquire) {
        return;
    }
    if write_frame(
        &stream,
        &encode_recon(target, dialer, link.last_delivered.load(Ordering::Acquire)),
    )
    .is_err()
    {
        return;
    }
    let _ = install_stream(shared, link, stream, dialer_delivered);
}

/// The event loop's writes on one link, in stream order: the tail of a
/// frame left half-written, then every window frame the installed
/// stream has not been given, then a heartbeat when one is due. Never
/// waits — what the socket will not take stays for the next tick. The
/// caller holds the link's order lock (by `try_lock`) and its state
/// lock.
fn pump(link: &Link, st: &mut State, stream: &TcpStream, hb_due: bool, now: Instant, stats: &Stats) -> io::Result<()> {
    let sent = write_some(stream, &st.stash)?;
    st.stash.drain(..sent);
    while st.stash.is_empty() && st.resend < st.window.len() {
        let frame = &st.window[st.resend];
        let sent = write_some(stream, frame)?;
        if sent == 0 {
            return Ok(());
        }
        st.stash.extend_from_slice(&frame[sent..]);
        st.resend += 1;
        stats.replayed_frames.fetch_add(1, Ordering::Relaxed);
    }
    if hb_due && st.stash.is_empty() {
        let hb = hb_frame(link.last_delivered.load(Ordering::Acquire));
        let sent = write_some(stream, &hb)?;
        if sent > 0 {
            st.stash.extend_from_slice(&hb[sent..]);
            st.last_hb = now;
            link.unacked_bytes.store(0, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// Per-link periodic duties: heartbeats and acks, silence accounting,
/// go-back-N retransmits, reconnect dials, and give-up deadlines.
fn tend_link(
    shared: &Arc<Shared>,
    link: &Arc<Link>,
    registry: &Arc<Registry>,
    stopping: bool,
    now: Instant,
) {
    let knobs = &shared.knobs;
    let mut st = link.state.lock();
    if st.down {
        return;
    }
    if let Some(stream) = st.stream.clone() {
        // Silence accounting: every full heartbeat period without
        // inbound traffic is one miss; enough misses mark the link
        // Suspect and tear it for reconnection.
        let heard = link.born + Duration::from_nanos(link.last_heard_ns.load(Ordering::Relaxed));
        let silent = now.saturating_duration_since(heard);
        let periods = (silent.as_nanos() / knobs.hb_period.as_nanos().max(1)) as u32;
        let counted = link.misses_counted.load(Ordering::Relaxed);
        if periods > counted {
            shared
                .stats
                .heartbeat_misses
                .fetch_add((periods - counted) as u64, Ordering::Relaxed);
            link.misses_counted.store(periods, Ordering::Relaxed);
        }
        if periods >= knobs.hb_misses && !stopping {
            link.tear(&mut st, now);
            return;
        }
        if !st.window.is_empty() && now.duration_since(st.last_progress) > knobs.rto {
            // Acks stalled: go-back-N replay of everything unacked.
            st.resend = 0;
            st.last_progress = now;
        }
        let hb_due = !link.mute.load(Ordering::Acquire)
            && (now.duration_since(st.last_hb) >= knobs.hb_period
                || link.unacked_bytes.load(Ordering::Relaxed) >= ACK_EVERY_BYTES);
        if hb_due || st.resend < st.window.len() || !st.stash.is_empty() {
            // A sender mid-frame owns the stream's tail; try next tick.
            if let Some(_order) = link.order.try_lock() {
                let written = pump(link, &mut st, &stream, hb_due, now, &shared.stats);
                if written.is_err() && !stopping {
                    link.tear(&mut st, now);
                }
            }
        }
        return;
    }
    // Torn. A clean goodbye or world teardown ends the link quietly.
    if link.saw_bye.load(Ordering::Acquire) {
        st.down = true;
        return;
    }
    if stopping {
        return;
    }
    let torn_at = *st.torn_at.get_or_insert(now);
    if link.dial_addr.is_none() {
        // Accept side: the peer dials us. Give it the dialer's whole
        // backoff budget before declaring the link dead.
        if now.duration_since(torn_at) > knobs.reconnect_window {
            declare_down(link, &mut st, knobs.attempts, registry);
        }
        return;
    }
    // Dial side.
    if st.dialing || now < st.next_dial {
        return;
    }
    if let Some(chaos) = &shared.chaos {
        if chaos.pair_partitioned(link.owner, link.peer) {
            // Known partition window: defer without spending attempts.
            st.next_dial = now + knobs.backoff;
            return;
        }
    }
    // Dial on a detached thread: the handshake round-trip must not
    // block this loop, which (in loopback mode) is also the loop that
    // accepts the dial on the listener side.
    st.dialing = true;
    drop(st);
    let link2 = Arc::clone(link);
    let shared2 = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("beatnik-tcp-dial".into())
        .spawn(move || {
            let result = dial_reconnect(&link2);
            shared2
                .dial_results
                .lock()
                .push((link2.owner, link2.peer, result));
        });
}

/// Fold finished dial attempts back into their links: install on
/// success, advance the backoff schedule (or give up) on failure.
fn drain_dial_results(shared: &Arc<Shared>, registry: &Arc<Registry>) {
    let results = std::mem::take(&mut *shared.dial_results.lock());
    for (owner, peer, result) in results {
        let Some(link) = shared.links.get(&(owner, peer)) else {
            continue;
        };
        let knobs = &shared.knobs;
        let mut st = link.state.lock();
        st.dialing = false;
        if st.down || st.stream.is_some() {
            continue; // raced with an inbound accept
        }
        match result {
            Ok((stream, peer_delivered)) => {
                drop(st);
                let _ = install_stream(shared, link, stream, peer_delivered);
            }
            Err(_) => {
                st.attempts_made += 1;
                if st.attempts_made >= knobs.attempts {
                    let attempts = st.attempts_made;
                    declare_down(link, &mut st, attempts, registry);
                    continue;
                }
                // Capped exponential backoff with deterministic jitter
                // so both ends of a flapping mesh don't dial in
                // lockstep.
                let shift = st.attempts_made.min(5);
                let base = knobs.backoff * (1u32 << shift);
                let capped = base.min(knobs.backoff * 32);
                let jitter = 0.75
                    + 0.5
                        * ((link.owner as u64 * 31 + st.attempts_made as u64 * 17) % 16) as f64
                        / 16.0;
                st.next_dial = Instant::now()
                    + Duration::from_nanos((capped.as_nanos() as f64 * jitter) as u64);
            }
        }
    }
}

/// The event loop: every [`TEND_PERIOD`] it drains the streams of ranks
/// that are not waiting and runs the timed duties; while it finds bytes
/// it keeps draining, and otherwise it sleeps to the next tick (or until
/// shutdown unparks it).
fn run_event_loop(shared: Arc<Shared>, registry: Arc<Registry>) {
    let mut next_tend = Instant::now();
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let now = Instant::now();
        let mut drained = false;
        for inbound in &shared.inbound {
            drained |= inbound.sweep(&registry, now);
        }
        if now >= next_tend {
            next_tend = now + TEND_PERIOD;
            if let Some(listener) = &shared.listener {
                while let Ok((stream, _)) = listener.accept() {
                    drained = true;
                    accept_reconnect(&shared, stream);
                }
            }
            drain_dial_results(&shared, &registry);
            for link in shared.links.values() {
                tend_link(&shared, link, &registry, stopping, now);
            }
        }
        if drained {
            continue;
        }
        if stopping {
            return;
        }
        // Parked rather than asleep, so shutdown need not wait a tick.
        std::thread::park_timeout(next_tend.saturating_duration_since(Instant::now()));
    }
}

impl Progress for Shared {
    fn delivered(&self, rank: usize) -> u64 {
        self.inbound_of(rank).map_or(0, |i| i.delivered.load(Ordering::SeqCst))
    }

    fn progress(&self, registry: &Registry, rank: usize, seen: u64, timeout: Duration) {
        let inbound = self.inbound_of(rank).expect("a waiting rank is hosted by its transport");
        inbound.waiting.fetch_add(1, Ordering::SeqCst);
        POLL_SET.with_borrow_mut(|set| {
            {
                let mut readers = inbound.readers.lock();
                inbound.drain(&mut readers, registry, Instant::now());
                for reader in readers.iter() {
                    set.fds.push(sys::PollFd::readable(&*reader.stream));
                    set.streams.push(Arc::clone(&reader.stream));
                }
            }
            if inbound.delivered.load(Ordering::SeqCst) == seen {
                set.fds.push(inbound.doorbell.poll_fd());
                if sys::wait(&mut set.fds, timeout) {
                    if set.fds.last().is_some_and(sys::PollFd::ready) {
                        inbound.doorbell.clear();
                    }
                    inbound.drain(&mut inbound.readers.lock(), registry, Instant::now());
                }
            }
            set.fds.clear();
            set.streams.clear();
        });
        inbound.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    fn ring_all(&self) {
        for inbound in &self.inbound {
            inbound.doorbell.ring();
        }
    }
}

/// Send one sealed MSG frame on `link`: stamp its sequence number,
/// write it (subject to `fate`), and move it into the send window. The
/// order lock is held throughout, so frames reach the socket and the
/// window in sequence order; the state lock only around the field
/// updates at either end.
fn send_frame(link: &Link, mut frame: Vec<u8>, fate: FrameFate) {
    let mut next_seq = link.order.lock();
    let (stream, stash) = {
        let mut st = link.state.lock();
        if st.down {
            // The ledger already names this peer; senders above us get
            // their error from the collective layer, not a panic here.
            return;
        }
        // While a replay is under way the pump sends the whole window,
        // this frame included, in order; writing it now would only
        // hand the receiver a gap to discard.
        match &st.stream {
            Some(s) if st.resend == st.window.len() => {
                (Some(Arc::clone(s)), std::mem::take(&mut st.stash))
            }
            _ => (None, Vec::new()),
        }
    };
    let seq = *next_seq;
    *next_seq += 1;
    frame[SEQ_AT..CRC_AT].copy_from_slice(&seq.to_le_bytes());
    let mut written = Ok(());
    if let (Some(stream), false) = (&stream, fate.partitioned) {
        written = write_all(stream, &stash);
        // A frame chaos drops never reaches the wire; the window plus
        // the go-back-N timer deliver it eventually.
        if written.is_ok() && fate.deliver {
            if fate.corrupt {
                flip_inner_bytes(&mut frame);
            }
            written = write_all(stream, &frame);
            if fate.corrupt {
                flip_inner_bytes(&mut frame);
            } else if fate.duplicate && written.is_ok() {
                written = write_all(stream, &frame);
            }
        }
    }
    let now = Instant::now();
    let mut st = link.state.lock();
    if st.down {
        return;
    }
    let installed = match (&stream, &st.stream) {
        (Some(mine), Some(current)) => Arc::ptr_eq(mine, current),
        _ => false,
    };
    if fate.partitioned || (written.is_err() && installed) {
        // A partition severs the pair now; a socket that died mid-write
        // is torn so the reconnect path (backed by the window) heals it
        // or declares the peer dead. No panic, no failure mark here.
        link.tear(&mut st, now);
    }
    if seq > st.acked {
        if st.window.is_empty() {
            st.last_progress = now;
        }
        if installed && written.is_ok() && st.resend == st.window.len() {
            st.resend += 1;
        }
        st.window.push_back(frame);
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let shared = Arc::clone(&self.shared);
        let registry = Arc::clone(registry);
        let handle = std::thread::Builder::new()
            .name("beatnik-tcp-link".into())
            .spawn(move || run_event_loop(shared, registry))
            .expect("spawning the tcp link thread");
        *self.event_loop.lock() = Some(handle);
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire (and never count as
            // chaos frames, matching every other backend).
            registry.mailbox(route.comm, route.dst_local).push(env);
            return;
        }
        let link = self
            .shared
            .links
            .get(&(route.src_world, route.dst_world))
            .unwrap_or_else(|| {
                panic!("no tcp link for {} -> {}", route.src_world, route.dst_world)
            });
        let frame = msg_frame(wire::data_len(&env), |out| {
            wire::encode_data_into(out, route.comm, route.dst_local, &env)
        });
        // Chaos counts exactly the first transmission of each data
        // frame; retransmits, heartbeats, and handshakes are invisible
        // to it, which keeps the ledger identical across backends.
        let fate = match &self.shared.chaos {
            Some(chaos) => chaos.on_frame(route.src_world, route.dst_world),
            None => FrameFate::clean(),
        };
        if let Some(d) = fate.delay {
            std::thread::sleep(d);
        }
        send_frame(link, frame, fate);
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only per-process mode (one
        // local rank) needs to broadcast.
        if self.shared.inbound.len() != 1 {
            return;
        }
        let inner = wire::encode_ctrl(ctrl);
        let frame = msg_frame(inner.len(), |out| out.extend_from_slice(&inner));
        for link in self.shared.links.values() {
            send_frame(link, frame.clone(), FrameFate::clean());
        }
    }

    fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.event_loop.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }

    fn progress(&self) -> Option<Arc<dyn Progress>> {
        Some(Arc::clone(&self.shared) as Arc<dyn Progress>)
    }

    fn link_stats(&self) -> LinkStats {
        let s = &self.shared.stats;
        LinkStats {
            reconnects: s.reconnects.load(Ordering::Relaxed),
            heartbeat_misses: s.heartbeat_misses.load(Ordering::Relaxed),
            replayed_frames: s.replayed_frames.load(Ordering::Relaxed),
            last_reconnect_ns: s.last_reconnect_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::registry::WORLD_COMM_ID;
    use crate::transport::Route;

    /// Aggressive timing so tear/reconnect cycles finish in test time.
    fn fast_config() -> CommConfig {
        CommConfig {
            heartbeat_period: Duration::from_millis(25),
            heartbeat_misses: 4,
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(5),
            ..CommConfig::default()
        }
    }

    fn route(src: usize, dst: usize) -> Route {
        Route {
            comm: WORLD_COMM_ID,
            dst_local: dst,
            src_world: src,
            dst_world: dst,
        }
    }

    fn recv_u64(registry: &Registry, rank: usize, tag: u64) -> Vec<u64> {
        let mb = registry.mailbox(WORLD_COMM_ID, rank);
        mb.recv_matching_timeout(usize::MAX, tag, mb.interrupt_seq(), Duration::from_secs(10))
            .unwrap_or_else(|| panic!("rank {rank} timed out waiting for tag {tag}"))
            .into_data::<u64>()
    }

    #[test]
    fn sealed_frames_carry_a_crc_that_corruption_breaks() {
        let inner = b"payload-bytes";
        let frame = msg_frame(inner.len(), |out| out.extend_from_slice(inner));
        assert_eq!(frame.len(), HEADER + inner.len());
        assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize, frame.len() - 4);
        assert_eq!(frame[4], TAG_MSG);
        let sum = u32::from_le_bytes(frame[CRC_AT..HEADER].try_into().unwrap());
        assert_eq!(sum, crc32c(inner));
        let mut mangled = frame.clone();
        flip_inner_bytes(&mut mangled);
        // Header (length, tag, seq, crc) intact; inner bytes no longer
        // match it.
        assert_eq!(frame[..HEADER], mangled[..HEADER]);
        assert_ne!(crc32c(&mangled[HEADER..]), sum);
        // Flipping again restores the frame the window keeps.
        flip_inner_bytes(&mut mangled);
        assert_eq!(frame, mangled);
    }

    #[test]
    fn recon_frames_roundtrip() {
        let frame = encode_recon(3, 1, 0xABCD);
        assert_eq!(decode_recon(&frame).unwrap(), (3, 1, 0xABCD));
        assert!(decode_recon(&frame[..24]).is_err());
        assert!(decode_recon(&hb_frame(9)[4..]).is_err());
    }

    #[test]
    fn loopback_builds_a_full_mesh_with_dial_addresses_on_the_high_end() {
        let t = TcpTransport::loopback(4, &CommConfig::default(), None).unwrap();
        assert_eq!(t.shared.links.len(), 12);
        for ((owner, peer), link) in &t.shared.links {
            assert_eq!(link.owner, *owner);
            assert_eq!(link.peer, *peer);
            // Reconnect dial rule matches rendezvous: higher rank dials.
            assert_eq!(link.dial_addr.is_some(), owner > peer);
            assert!(link.state.lock().stream.is_some());
        }
        assert!(t.shared.listener.is_some());
        t.shutdown();
    }

    #[test]
    fn frames_cross_a_socket_and_land_in_the_mailbox() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &CommConfig::default(), None).unwrap();
        t.attach(&registry);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![1u64, 2, 3]));
        assert_eq!(recv_u64(&registry, 1, 7), vec![1, 2, 3]);
        // Self-sends bypass the wire entirely.
        t.deliver(&registry, route(1, 1), Envelope::new(1, 8, vec![9u64]));
        assert_eq!(recv_u64(&registry, 1, 8), vec![9]);
        t.shutdown();
    }

    /// `(tag, payload)` of each message a test stream carries, in order.
    type Expect = Vec<(u64, Vec<u64>)>;

    /// A byte stream of MSG and HB frames — small ones and one larger
    /// than the inbox — as rank 0 would write it toward rank 1; what
    /// each MSG should deliver; and where the third MSG frame lies.
    fn mixed_stream() -> (Vec<u8>, Expect, std::ops::Range<usize>) {
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        let mut third = 0..0;
        let sizes = [3usize, 0, 700, 1, INBOX_BYTES / 8 + 5, 64];
        for (i, &n) in sizes.iter().enumerate() {
            let tag = 100 + i as u64;
            let data: Vec<u64> = (0..n as u64).map(|k| k * 7 + tag).collect();
            let env = Envelope::new(0, tag, data.clone());
            let mut frame = msg_frame(wire::data_len(&env), |out| {
                wire::encode_data_into(out, WORLD_COMM_ID, 1, &env)
            });
            frame[SEQ_AT..CRC_AT].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            if i == 2 {
                third = stream.len()..stream.len() + frame.len();
            }
            stream.extend_from_slice(&frame);
            stream.extend_from_slice(&hb_frame(i as u64));
            expect.push((tag, data));
        }
        (stream, expect, third)
    }

    /// Feed `pieces` of a byte stream through rank 1's reader of a
    /// fresh, unattached loopback pair — as reads of exactly those
    /// sizes would — and return what landed in rank 1's mailbox plus
    /// the ack point the HB frames left on the link.
    fn feed(pieces: &[&[u8]], expect: &[(u64, Vec<u64>)]) -> (Vec<Vec<u64>>, u64) {
        let registry = Registry::new();
        let t = TcpTransport::loopback(2, &CommConfig::default(), None).unwrap();
        let inbound = t.shared.inbound_of(1).unwrap();
        let mut readers = inbound.readers.lock();
        let reader = readers
            .iter_mut()
            .find(|r| (r.link.owner, r.link.peer) == (1, 0))
            .unwrap();
        for piece in pieces {
            let mut rest = *piece;
            while !rest.is_empty() {
                let spare = reader.inbox.spare();
                let n = rest.len().min(spare.len());
                spare[..n].copy_from_slice(&rest[..n]);
                reader.inbox.tail += n;
                rest = &rest[n..];
                assert!(drain_reader_frames(reader, &registry, &inbound.delivered));
            }
        }
        assert_eq!((reader.inbox.head, reader.inbox.tail), (0, 0), "bytes left unparsed");
        assert_eq!(inbound.delivered.load(Ordering::SeqCst), expect.len() as u64, "MSG frames counted");
        let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
        let got = expect
            .iter()
            .map(|(tag, _)| {
                mailbox
                    .recv_matching_timeout(0, *tag, mailbox.interrupt_seq(), Duration::ZERO)
                    .unwrap_or_else(|| panic!("tag {tag} not delivered"))
                    .into_data::<u64>()
            })
            .collect();
        let acked = reader.link.state.lock().acked;
        (got, acked)
    }

    #[test]
    fn a_stream_split_anywhere_yields_the_same_envelopes_as_one_read() {
        let (stream, expect, third) = mixed_stream();
        let want: Vec<Vec<u64>> = expect.iter().map(|(_, d)| d.clone()).collect();
        let last_ack = expect.len() as u64 - 1;

        let whole = feed(&[&stream], &expect);
        assert_eq!(whole, (want, last_ack));

        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(feed(&bytes, &expect), whole, "one byte at a time");

        // Every split point of one frame: before it, inside the length
        // prefix, the header and the payload, and after it.
        for cut in third.start..=third.end {
            let (a, b) = stream.split_at(cut);
            assert_eq!(feed(&[a, b], &expect), whole, "split at byte {cut}");
        }
    }

    /// The race the delivered count closes, played out in order on one
    /// thread of an unattached pair: rank 1 reads its count, the event
    /// loop's path delivers a frame for it, and only then does rank 1
    /// call `progress` — which must return without sleeping, leaving the
    /// frame in the mailbox. With the count current and nothing coming,
    /// the same call does sleep, until its timeout or a ring.
    #[test]
    fn a_delivery_between_the_count_and_the_sleep_is_not_slept_through() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &CommConfig::default(), None).unwrap();
        let shared = &*t.shared;
        let inbound = shared.inbound_of(1).unwrap();
        let seen = shared.delivered(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![5u64]));

        // The event loop leaves a waiting rank's streams alone...
        inbound.waiting.store(1, Ordering::SeqCst);
        assert!(!inbound.sweep(&registry, Instant::now()));
        assert_eq!(shared.delivered(1), seen);
        inbound.waiting.store(0, Ordering::SeqCst);
        // ...and drains those of a rank that is not.
        let deadline = Instant::now() + Duration::from_secs(10);
        while shared.delivered(1) == seen {
            assert!(Instant::now() < deadline, "the event loop's drain never delivered");
            inbound.sweep(&registry, Instant::now());
        }

        let started = Instant::now();
        shared.progress(&registry, 1, seen, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slept {:?} past a delivery",
            started.elapsed()
        );
        let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
        let env = mailbox.recv_matching_timeout(0, 7, mailbox.interrupt_seq(), Duration::ZERO);
        assert_eq!(env.expect("frame delivered").into_data::<u64>(), vec![5]);

        let started = Instant::now();
        shared.progress(&registry, 1, shared.delivered(1), Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(25), "woke with nothing to read");

        let ringer = {
            let t = Arc::clone(&t.shared);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                t.ring_all();
            })
        };
        let started = Instant::now();
        shared.progress(&registry, 1, shared.delivered(1), Duration::from_secs(10));
        assert!(started.elapsed() < Duration::from_secs(5), "a ring did not wake the sleeper");
        ringer.join().unwrap();
    }

    /// Messages pushed through a lossy link all arrive, in order, with
    /// no application-level help: CRC + seq + go-back-N do the healing.
    fn chaos_run(spec: &str) -> (Vec<Vec<u64>>, LinkStats) {
        let plan = FaultPlan::parse(spec, 0xC0FFEE).unwrap();
        let chaos = LinkChaos::from_plan(&plan).expect("plan has link actions");
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &fast_config(), Some(chaos)).unwrap();
        t.attach(&registry);
        let mut got = Vec::new();
        for i in 0..8u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, 40 + i, vec![i, i * i]));
        }
        for i in 0..8u64 {
            got.push(recv_u64(&registry, 1, 40 + i));
        }
        let stats = t.link_stats();
        t.shutdown();
        (got, stats)
    }

    #[test]
    fn dropped_frames_are_replayed_by_the_ack_timer() {
        let (got, _) = chaos_run("drop:r0>r1@link2,drop:r0>r1@link5");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn corrupted_frames_fail_crc_and_are_replayed() {
        let (got, _) = chaos_run("corrupt:r0>r1@link1,corrupt:r0>r1@link7");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn duplicated_frames_are_deduplicated_by_sequence() {
        let (got, _) = chaos_run("dup:r0>r1@link1,dup:r0>r1@link4");
        assert_eq!(got.len(), 8);
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
    }

    #[test]
    fn a_partition_tears_the_link_and_reconnect_replays_the_window() {
        let (got, stats) = chaos_run("partition:r0>r1@link3:100ms");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, &vec![i as u64, (i * i) as u64], "message {i}");
        }
        assert!(
            stats.reconnects >= 1,
            "healing a partition must reconnect: {stats:?}"
        );
        assert!(stats.last_reconnect_ns > 0);
    }

    /// The receiving side acks by volume, so the sender's window stays
    /// near [`ACK_EVERY_BYTES`] even when heartbeats are 10 s apart —
    /// without that, all 80 MB below would sit in it until the first
    /// heartbeat.
    #[test]
    fn acks_by_volume_bound_the_window_whatever_the_heartbeat_period() {
        let config = CommConfig {
            heartbeat_period: Duration::from_secs(10),
            ..CommConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &config, None).unwrap();
        t.attach(&registry);
        let payload = vec![0xA5u8; 8 * 1024];
        for i in 0..10_000u64 {
            t.deliver(&registry, route(0, 1), Envelope::new(0, i, payload.clone()));
            if i % 64 == 63 {
                // Keep the mailbox from holding the whole run.
                for tag in i - 63..=i {
                    let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
                    let env = mailbox.recv_matching_timeout(
                        0,
                        tag,
                        mailbox.interrupt_seq(),
                        Duration::from_secs(10),
                    );
                    assert_eq!(env.unwrap().into_data::<u8>().len(), payload.len());
                }
            }
        }
        let window_bytes = || -> u64 {
            let st = t.shared.links[&(0, 1)].state.lock();
            st.window.iter().map(|f| f.len() as u64).sum()
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while window_bytes() > ACK_EVERY_BYTES {
            assert!(
                Instant::now() < deadline,
                "{} B still unacked with everything delivered",
                window_bytes()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        t.shutdown();
    }

    #[test]
    fn muted_heartbeats_drive_suspect_then_reconnect() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2, &fast_config(), None).unwrap();
        // Rank 1 stops heartbeating; rank 0's inbound link goes silent,
        // suspects, tears, and the pair re-establishes.
        t.shared.links[&(1, 0)].mute.store(true, Ordering::Release);
        t.attach(&registry);
        let deadline = Instant::now() + Duration::from_secs(10);
        while t.link_stats().reconnects == 0 {
            assert!(
                Instant::now() < deadline,
                "no reconnect after heartbeat silence: {:?}",
                t.link_stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(t.link_stats().heartbeat_misses >= fast_config().heartbeat_misses as u64);
        // The healed link still carries traffic.
        t.deliver(&registry, route(0, 1), Envelope::new(0, 3, vec![42u64]));
        assert_eq!(recv_u64(&registry, 1, 3), vec![42]);
        t.shutdown();
    }

    /// Two transports in one process over real sockets, as two
    /// single-rank "processes" would hold them: killing one end without
    /// a goodbye must mark the peer failed on the survivor — the
    /// detection path that keeps a real peer death from hanging ULFM.
    #[test]
    fn abrupt_peer_death_exhausts_reconnect_and_marks_the_rank_failed() {
        let config = fast_config();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let child_cfg = config.clone();
        let child = std::thread::spawn(move || {
            TcpTransport::child(&addr, 1, 2, &child_cfg, None).unwrap()
        });
        let parent = Arc::new(TcpTransport::parent(listener, 2, &config, None).unwrap());
        let child_t = child.join().unwrap();
        let parent_reg = Arc::new(Registry::new());
        parent.attach(&parent_reg);
        // Install the transport the way a real world does, so the
        // failure broadcast (`mark_failed` → `publish_ctrl`) comes back
        // into this transport's link locks while the event loop runs.
        parent_reg.install_transport(Arc::clone(&parent) as Arc<dyn Transport>);
        // Sever the child's sockets abruptly: no Bye, no live listener.
        {
            let link = &child_t.shared.links[&(1, 0)];
            if let Some(s) = link.state.lock().stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        drop(child_t); // closes the child's listener too
        let deadline = Instant::now() + Duration::from_secs(20);
        while !parent_reg.is_failed(1) {
            assert!(
                Instant::now() < deadline,
                "survivor never declared the dead peer failed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let downs = parent_reg.link_downs();
        assert!(
            matches!(downs.first(), Some(CommError::LinkDown { peer: 1, .. })),
            "typed cause missing: {downs:?}"
        );
        parent.shutdown();
    }
}
