//! TCP transport: one plain byte stream per rank pair.
//!
//! ## Frames
//!
//! A frame on a stream is a `u32` length and one inner wire frame
//! ([`wire`]): `len u32 | inner`, with `len` counting the inner bytes.
//! There is no tag, sequence number, checksum or send window: the
//! kernel's stream delivers bytes in order, intact, or not at all, and
//! that is the reliability MPI's TCP transports build on too.
//!
//! A frame is built once, length prefix included: the sender reserves
//! the prefix, [`wire::encode_data_into`] appends the inner frame behind
//! it (the one copy of the payload), and the buffer goes to the socket
//! as it is. The receiver reads into the free end of one buffer per
//! stream, walks complete frames with a cursor and copies each payload
//! out once, into its envelope.
//!
//! ## A torn stream is a failed peer
//!
//! EOF, a reset or any other socket error on a stream whose peer has not
//! said `BYE` (the control frame of a clean shutdown) ends the link at
//! once: [`Registry::record_link_down`] posts a typed
//! [`crate::CommError::LinkDown`] and marks the peer failed, and the world ends
//! the way it does for any dead rank. Bytes the receiver cannot take
//! end the link the same way: a length over [`MAX_FRAME`], a frame
//! [`wire::decode`] refuses, or a `HANDOFF` token, which means something
//! only inside the shmem process that minted it. Nothing is retried and
//! nothing panics. A peer that said `BYE` first ends its link quietly.
//!
//! The report runs on a thread of its own
//! ([`super::report_link_down`]): marking a peer failed broadcasts the
//! news through [`Transport::publish_ctrl`], which may wait for peers to
//! drain, and the thread that found the tear may be a writer draining
//! its own streams while it holds a link's write lock.
//!
//! ## Who reads a stream
//!
//! Sockets are nonblocking. The streams a rank reads are kept with that
//! rank ([`Inbound`]), not with a thread, and only the rank's own
//! threads read them ([`Progress`]). A rank that waits for a message
//! drains its streams and, when nothing new has arrived, sleeps in
//! `poll(2)` on those sockets and on the rank's doorbell. `test()`
//! drains once. A frame therefore reaches its mailbox on the thread
//! that needs it, with one delivery path and no hand-off between
//! threads.
//!
//! The doorbell is one end of a socket pair, readable while a ring is
//! pending. [`Registry`] rings every doorbell when it interrupts the
//! mailboxes (abort, failure), so a rank asleep on its sockets wakes at
//! once, not at the end of its poll slice. Each rank also counts the
//! frames delivered to it; a waiter reads that count before it looks in
//! its mailbox and does not sleep once it has moved, so a frame another
//! thread of the rank delivers in between is not slept through.
//!
//! ## Locks
//!
//! **No reader lock is held across `poll(2)`.** A rank's reader list is
//! locked by whoever drains it, for the drain only; a waiting rank
//! gathers its sockets under the lock and releases it before it sleeps.
//! Each link has one more lock, its write lock: a sender holds it while
//! it writes one whole frame, so frames stay whole on the stream. A
//! drain never takes it. A sender that finds the socket buffer full
//! drains its own rank's streams (with `try_lock`: a thread that holds
//! them is draining already) — the peer it waits on may itself be
//! blocked writing to it — yields a few times, then sleeps in `poll(2)`
//! until the stream takes bytes again, its own streams turn readable or
//! its rank's doorbell rings. It gives the frame up once the world
//! aborts, the peer is marked failed or said `BYE`, or the transport
//! stops.
//!
//! Like the shmem backend, two modes share the code: **loopback**
//! (ranks are threads, both socket ends live in this process) and
//! **per-process** (a parent/child rendezvous builds a full mesh, then
//! closes its listeners).

use super::{wire, CtrlMsg, Progress, Route, Transport, TransportKind};
use crate::config::CommConfig;
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Largest stream frame either side accepts. The prefix arrives from
/// outside the process, so it is bounded before a buffer is sized
/// from it.
const MAX_FRAME: usize = 1 << 30;

/// Largest rendezvous frame (a hello or the address table) either side
/// accepts: room for tens of thousands of ranks' addresses.
const MAX_HANDSHAKE_FRAME: usize = 1 << 20;

/// Receive-buffer sizing: the initial size, and the least free space a
/// read is given.
const INBOX_BYTES: usize = 64 * 1024;
const READ_MIN: usize = 16 * 1024;

/// Reads taken from one stream per drain, so one busy peer cannot hold
/// off the others.
const READS_PER_SWEEP: usize = 8;

/// Yields a writer takes when the socket's buffer is full before it
/// sleeps in `poll(2)` (the same rule as a waiting rank's
/// [`crate::communicator::YIELD_TURNS`]): the reader that drains the
/// buffer may be waiting for this very CPU.
const WRITE_YIELD_TURNS: u32 = crate::communicator::YIELD_TURNS;

/// Longest a blocked writer sleeps before it looks again; a full buffer
/// that drains or a doorbell ring ends the sleep sooner.
const WRITE_SLICE: Duration = Duration::from_millis(100);

#[cfg(test)]
thread_local! {
    /// Yields this thread has taken on a full socket buffer.
    static WRITE_YIELDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Write all of `bytes` (every socket here is nonblocking once its link
/// exists). On a full buffer `blocked(turn)` runs, `turn` counting the
/// full buffers since bytes last went out: it waits for room, or returns
/// an error to give the write up.
fn write_all(
    mut stream: &TcpStream,
    bytes: &[u8],
    mut blocked: impl FnMut(u32) -> io::Result<()>,
) -> io::Result<()> {
    let mut off = 0;
    let mut turn = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                off += n;
                turn = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                blocked(turn)?;
                turn += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Build one stream frame in one buffer: reserve the length prefix, let
/// `fill` append the inner frame (`inner_len` bytes, a capacity hint)
/// behind it, then fill in the length.
fn stream_frame(inner_len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + inner_len);
    frame.resize(4, 0);
    fill(&mut frame);
    let len = frame.len() - 4;
    assert!(
        len <= MAX_FRAME,
        "a {len}-byte message exceeds the tcp transport's frame limit"
    );
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame
}

/// Read exactly `buf.len()` bytes, spinning through `WouldBlock` until
/// `deadline`. Handshake-time helper; steady-state reads go through the
/// nonblocking drains instead.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> io::Result<()> {
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

/// A waiting rank's sleep: `poll(2)` on its sockets and its doorbell; a
/// blocked writer's: on its stream and its doorbell.
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
    const POLLOUT: i16 = 0x4;

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

        /// Wait for `fd` to take bytes again (or hang up, or fail).
        pub fn writable(fd: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: fd.as_raw_fd(),
                events: POLLOUT,
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

        pub fn writable<T>(_: &T) -> PollFd {
            PollFd
        }

        pub fn ready(&self) -> bool {
            false
        }
    }

    pub fn wait(_: &mut [PollFd], timeout: Duration) -> bool {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
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

/// One directed link endpoint this process owns: `owner` (local) writes
/// toward `peer` on `stream`, and reads the reverse direction from it.
struct Link {
    owner: usize,
    peer: usize,
    /// Nonblocking.
    stream: TcpStream,
    /// Held by a sender for one whole frame, so frames stay whole on
    /// the stream.
    write: Mutex<()>,
    /// The peer announced a clean shutdown; its EOF is not a failure.
    saw_bye: AtomicBool,
}

impl Link {
    fn new(owner: usize, peer: usize, stream: TcpStream) -> io::Result<Arc<Link>> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Arc::new(Link {
            owner,
            peer,
            stream,
            write: Mutex::new(()),
            saw_bye: AtomicBool::new(false),
        }))
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
    fn new() -> Inbox {
        Inbox {
            buf: vec![0; INBOX_BYTES],
            head: 0,
            tail: 0,
        }
    }

    /// Length prefix of the frame at `head`, once all four bytes of it
    /// have arrived.
    fn frame_len(&self) -> Option<usize> {
        let prefix = self.buf[self.head..self.tail].first_chunk::<4>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    /// The free end to read into: room for the rest of the frame at
    /// `head` when its length is known, [`READ_MIN`] bytes otherwise.
    /// Unconsumed bytes move to the front only when the end of the
    /// buffer is reached. The buffer grows only for a frame larger than
    /// itself, and then to at most twice what has arrived plus
    /// [`READ_MIN`]: a length prefix from outside the process sizes
    /// nothing by itself.
    fn spare(&mut self) -> &mut [u8] {
        let pending = self.tail - self.head;
        let want = match self.frame_len() {
            Some(len) => 4 + len.min(MAX_FRAME),
            None => pending + READ_MIN,
        };
        let need = want.min(2 * pending + READ_MIN);
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail = pending;
            self.head = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        &mut self.buf[self.tail..]
    }
}

/// The read half of one link: the stream its peer writes toward its
/// owner, drained by the owner's threads.
struct Reader {
    link: Arc<Link>,
    inbox: Inbox,
}

/// The inbound streams of one rank hosted here, and what it sleeps on
/// while it waits for them. See the module docs.
struct Inbound {
    rank: usize,
    /// The rank's readers, one per open stream. Locked by whoever
    /// drains them, for the drain only.
    readers: Mutex<Vec<Reader>>,
    /// Frames applied to the rank's mailboxes and ledger so far.
    delivered: AtomicU64,
    doorbell: sys::Doorbell,
}

impl Inbound {
    fn new(rank: usize) -> io::Result<Inbound> {
        Ok(Inbound {
            rank,
            readers: Mutex::new(Vec::new()),
            delivered: AtomicU64::new(0),
            doorbell: sys::Doorbell::new()?,
        })
    }

    /// Drain every open stream once — at most [`READS_PER_SWEEP`] reads
    /// each — and drop the ones that ended. Returns whether bytes
    /// arrived.
    fn drain(&self, readers: &mut Vec<Reader>, shared: &Shared, registry: &Registry) -> bool {
        let mut heard = false;
        readers.retain_mut(|reader| {
            let (bytes, open) = drain_reader(reader, registry, &self.delivered);
            heard |= bytes;
            if !open {
                shared.end_link(&reader.link);
            }
            open
        });
        heard
    }

    /// Readable entries for the rank's open streams, appended to `fds`.
    fn poll_readers(&self, readers: &[Reader], fds: &mut Vec<sys::PollFd>) {
        fds.extend(readers.iter().map(|r| sys::PollFd::readable(&r.link.stream)));
    }
}

thread_local! {
    /// What a waiting rank sleeps on: its sockets, then its doorbell.
    /// One per thread, so a wait allocates nothing once the first has
    /// sized it.
    static POLL_SET: RefCell<Vec<sys::PollFd>> = const { RefCell::new(Vec::new()) };
}

/// The transport's state, shared with the ranks' [`Progress`] handles.
struct Shared {
    /// `(owner_world, peer_world) -> link`, fixed after construction.
    links: HashMap<(usize, usize), Arc<Link>>,
    stop: AtomicBool,
    /// The registry a torn link is reported to, set by `attach`. Weak,
    /// because the registry holds the transport.
    registry: OnceLock<Weak<Registry>>,
    /// The inbound side of every world rank hosted by this process (all
    /// of them in loopback).
    inbound: Vec<Inbound>,
}

impl Shared {
    fn inbound_of(&self, rank: usize) -> Option<&Inbound> {
        self.inbound.iter().find(|i| i.rank == rank)
    }

    /// Write one whole stream frame on `link`, under its write lock. A
    /// writer blocked on a full buffer drains its own rank's streams and
    /// sleeps as the module docs say, and stops once the world aborts,
    /// the peer is marked failed or said `BYE`, or the transport stops.
    /// Callers drop a failed write: the stream is broken (this link's
    /// reader sees the same break as EOF or an error and ends the link,
    /// see the module docs) or nobody will read it.
    fn send(&self, link: &Link, frame: &[u8], registry: &Registry) -> io::Result<()> {
        let _write = link.write.lock();
        let inbound = self.inbound_of(link.owner);
        // A ring may be meant for a rank asleep on the same doorbell, so
        // the writer never takes it: once it has heard one, it sleeps on
        // its sockets alone.
        let mut bell_heard = false;
        write_all(&link.stream, frame, |turn| {
            if let Some(inbound) = inbound {
                if let Some(mut readers) = inbound.readers.try_lock() {
                    inbound.drain(&mut readers, self, registry);
                }
            }
            if self.stop.load(Ordering::Acquire)
                || link.saw_bye.load(Ordering::Acquire)
                || registry.aborted()
                || registry.is_failed(link.peer)
            {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            if turn < WRITE_YIELD_TURNS {
                #[cfg(test)]
                WRITE_YIELDS.with(|n| n.set(n.get() + 1));
                std::thread::yield_now();
                return Ok(());
            }
            POLL_SET.with_borrow_mut(|fds| {
                fds.push(sys::PollFd::writable(&link.stream));
                let mut bell = false;
                if let Some(inbound) = inbound {
                    if let Some(readers) = inbound.readers.try_lock() {
                        inbound.poll_readers(&readers, fds);
                    }
                    if !bell_heard {
                        fds.push(inbound.doorbell.poll_fd());
                        bell = true;
                    }
                }
                sys::wait(fds, WRITE_SLICE);
                bell_heard |= bell && fds.last().is_some_and(sys::PollFd::ready);
                fds.clear();
            });
            Ok(())
        })
    }

    /// A link's stream ended (EOF, a socket error or bytes it could not
    /// take). After a `BYE`, or while the transport shuts down, that is
    /// the end of the conversation. Otherwise the stream is closed —
    /// the peer sees EOF, and a sender still writing to it gets an
    /// error instead of waiting — and the peer is reported failed.
    fn end_link(&self, link: &Link) {
        if link.saw_bye.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) {
            return;
        }
        let _ = link.stream.shutdown(Shutdown::Both);
        if let Some(registry) = self.registry.get() {
            super::report_link_down(registry, link.peer, link.owner);
        }
    }
}

/// The TCP transport. See the module docs for the two modes.
pub struct TcpTransport {
    shared: Arc<Shared>,
}

/// Collects links during rendezvous, then freezes into `Shared`.
#[derive(Default)]
struct MeshBuilder {
    links: HashMap<(usize, usize), Arc<Link>>,
}

impl MeshBuilder {
    fn add_link(&mut self, owner: usize, peer: usize, stream: TcpStream) -> io::Result<()> {
        self.links
            .insert((owner, peer), Link::new(owner, peer, stream)?);
        Ok(())
    }

    fn finish(self, local: Vec<usize>) -> io::Result<TcpTransport> {
        let inbound = local
            .iter()
            .map(|&rank| Inbound::new(rank))
            .collect::<io::Result<Vec<_>>>()?;
        for link in self.links.values() {
            let slot = inbound
                .iter()
                .find(|i| i.rank == link.owner)
                .expect("links are owned by local ranks");
            slot.readers.lock().push(Reader {
                link: Arc::clone(link),
                inbox: Inbox::new(),
            });
        }
        Ok(TcpTransport {
            shared: Arc::new(Shared {
                links: self.links,
                stop: AtomicBool::new(false),
                registry: OnceLock::new(),
                inbound,
            }),
        })
    }
}

/// Accept one connection on a nonblocking listener before `deadline`;
/// `waiting_for` names what a timeout was waiting for.
fn accept_by(
    listener: &TcpListener,
    deadline: Instant,
    waiting_for: impl Fn() -> String,
) -> io::Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, waiting_for()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

impl TcpTransport {
    /// Build a loopback transport: all ranks are threads here, and both
    /// ends of every pair's socket live in this process.
    pub fn loopback(num_ranks: usize) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut mesh = MeshBuilder::default();
        for i in 0..num_ranks {
            for j in (i + 1)..num_ranks {
                let a = TcpStream::connect(addr)?;
                let (b, _) = listener.accept()?;
                // `a` is rank i's end of the (i, j) pair, `b` is rank
                // j's: writes into `a` surface on `b` and vice versa.
                mesh.add_link(i, j, a)?;
                mesh.add_link(j, i, b)?;
            }
        }
        mesh.finish((0..num_ranks).collect())
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
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        listener.set_nonblocking(true)?;
        let mut mesh = MeshBuilder::default();
        let mut tab: HashMap<usize, String> = HashMap::new();
        let mut links: Vec<(usize, TcpStream)> = Vec::new();
        for _ in 1..num_ranks {
            let mut stream = accept_by(&listener, deadline, || {
                format!(
                    "rendezvous timed out: {}/{} children connected within {:?}",
                    links.len(),
                    num_ranks - 1,
                    config.handshake_timeout
                )
            })?;
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
            mesh.add_link(0, rank, stream)?;
        }
        mesh.finish(vec![0])
    }

    /// Child side of the rendezvous: dial the parent, announce our own
    /// listen address, receive the sibling table, then dial every
    /// lower-ranked sibling and accept from every higher-ranked one.
    pub fn child(
        parent_addr: &str,
        my_rank: usize,
        num_ranks: usize,
        config: &CommConfig,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + config.handshake_timeout;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut mesh = MeshBuilder::default();

        let mut parent = TcpStream::connect(parent_addr)?;
        write_hello(&parent, my_rank, &listener.local_addr()?.to_string())?;
        let table = decode_table(&read_one_frame(&mut parent, deadline)?)?;
        mesh.add_link(my_rank, 0, parent)?;

        for peer in 1..my_rank {
            let addr = table.get(&peer).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("rank {peer} not in table"))
            })?;
            let stream = TcpStream::connect(addr.as_str())?;
            write_hello(&stream, my_rank, "")?;
            mesh.add_link(my_rank, peer, stream)?;
        }
        listener.set_nonblocking(true)?;
        for _ in (my_rank + 1)..num_ranks {
            let mut stream = accept_by(&listener, deadline, || {
                format!("rank {my_rank}: rendezvous timed out waiting for higher siblings")
            })?;
            let (rank, _) = read_hello(&mut stream, deadline)?;
            mesh.add_link(my_rank, rank, stream)?;
        }
        mesh.finish(vec![my_rank])
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write one length-prefixed handshake frame.
fn write_frame(stream: &TcpStream, payload: &[u8]) -> io::Result<()> {
    write_all(
        stream,
        &stream_frame(payload.len(), |out| out.extend_from_slice(payload)),
        |_| {
            sys::wait(&mut [sys::PollFd::writable(stream)], WRITE_SLICE);
            Ok(())
        },
    )
}

fn write_hello(stream: &TcpStream, rank: usize, listen_addr: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(10 + listen_addr.len());
    frame.extend_from_slice(&(rank as u64).to_le_bytes());
    frame.extend_from_slice(&(listen_addr.len() as u16).to_le_bytes());
    frame.extend_from_slice(listen_addr.as_bytes());
    write_frame(stream, &frame)
}

fn read_hello(stream: &mut TcpStream, deadline: Instant) -> io::Result<(usize, String)> {
    decode_hello(&read_one_frame(stream, deadline)?)
}

/// `rank u64 | addr_len u16 | addr`, nothing after it.
fn decode_hello(frame: &[u8]) -> io::Result<(usize, String)> {
    let (Some(rank), Some(len)) = (frame.first_chunk::<8>(), frame.get(8..10)) else {
        return Err(invalid("short hello"));
    };
    let len = u16::from_le_bytes([len[0], len[1]]) as usize;
    if frame.len() != 10 + len {
        return Err(invalid(format!(
            "hello of {} bytes announces a {len}-byte address",
            frame.len()
        )));
    }
    let addr = std::str::from_utf8(&frame[10..]).map_err(|e| invalid(e.to_string()))?;
    Ok((u64::from_le_bytes(*rank) as usize, addr.to_owned()))
}

/// Read one handshake frame, refusing a length over
/// [`MAX_HANDSHAKE_FRAME`] before anything is sized from it.
fn read_one_frame(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    read_exact_deadline(stream, &mut len_bytes, deadline)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_HANDSHAKE_FRAME {
        return Err(invalid(format!("{len}-byte handshake frame")));
    }
    let mut frame = vec![0u8; len];
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
    let mut tab = HashMap::new();
    let count = frame
        .first_chunk::<4>()
        .ok_or_else(|| invalid("short table"))?;
    let mut pos = 4;
    for _ in 0..u32::from_le_bytes(*count) {
        let (Some(rank), Some(len)) = (frame.get(pos..pos + 8), frame.get(pos + 8..pos + 10))
        else {
            return Err(invalid("truncated table entry"));
        };
        let rank = u64::from_le_bytes(rank.try_into().unwrap()) as usize;
        let len = u16::from_le_bytes([len[0], len[1]]) as usize;
        pos += 10;
        let addr = frame
            .get(pos..pos + len)
            .ok_or_else(|| invalid("truncated table address"))?;
        let addr = std::str::from_utf8(addr).map_err(|_| invalid("non-utf8 address"))?;
        pos += len;
        tab.insert(rank, addr.to_owned());
    }
    if pos != frame.len() {
        return Err(invalid(format!(
            "{} trailing bytes after the table",
            frame.len() - pos
        )));
    }
    Ok(tab)
}

/// Handle every complete frame in the reader's inbox, adding the frames
/// applied to `delivered` once they are in place. Returns false when the
/// stream carries bytes no frame can be made of, which ends the link.
fn drain_reader_frames(reader: &mut Reader, registry: &Registry, delivered: &AtomicU64) -> bool {
    let link = &reader.link;
    let inbox = &mut reader.inbox;
    let mut healthy = true;
    let mut applied = 0;
    while let Some(len) = inbox.frame_len() {
        if len > MAX_FRAME {
            eprintln!(
                "beatnik-comm: {len}-byte frame announced by rank {}; ending the link",
                link.peer
            );
            healthy = false;
            break;
        }
        let end = inbox.head + 4 + len;
        if end > inbox.tail {
            break;
        }
        let inner = &inbox.buf[inbox.head + 4..end];
        inbox.head = end;
        match wire::decode(inner) {
            Ok(wire::Frame::Ctrl(CtrlMsg::Bye(rank))) => {
                if rank == link.peer {
                    link.saw_bye.store(true, Ordering::Release);
                }
            }
            Ok(wire::Frame::Handoff { .. }) => {
                eprintln!(
                    "beatnik-comm: handoff token from rank {} on a tcp stream; ending the link",
                    link.peer
                );
                healthy = false;
                break;
            }
            Ok(f) => wire::apply(f, registry),
            Err(e) => {
                eprintln!(
                    "beatnik-comm: undecodable frame from rank {} ({e}); ending the link",
                    link.peer
                );
                healthy = false;
                break;
            }
        }
        applied += 1;
    }
    if inbox.head == inbox.tail {
        inbox.head = 0;
        inbox.tail = 0;
    }
    if applied > 0 {
        delivered.fetch_add(applied, Ordering::SeqCst);
    }
    healthy
}

/// Read what one stream has ready — at most [`READS_PER_SWEEP`] reads —
/// and handle the frames that completes. Returns whether any bytes
/// arrived, and whether the stream is still open: EOF, a socket error
/// or bytes no frame can be made of end it. A read that comes back short
/// has emptied the socket, so it ends the drain without a read that
/// would only say `WouldBlock`.
fn drain_reader(reader: &mut Reader, registry: &Registry, delivered: &AtomicU64) -> (bool, bool) {
    let mut heard = false;
    for _ in 0..READS_PER_SWEEP {
        let spare = reader.inbox.spare();
        let room = spare.len();
        match (&reader.link.stream).read(spare) {
            Ok(0) => return (heard, false),
            Ok(n) => {
                heard = true;
                reader.inbox.tail += n;
                if !drain_reader_frames(reader, registry, delivered) {
                    return (heard, false);
                }
                if n < room {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (heard, false),
        }
    }
    (heard, true)
}

impl Progress for Shared {
    fn epoch(&self, rank: usize) -> u64 {
        self.inbound_of(rank)
            .map_or(0, |i| i.delivered.load(Ordering::SeqCst))
    }

    fn drain(&self, registry: &Registry, rank: usize) {
        if let Some(inbound) = self.inbound_of(rank) {
            inbound.drain(&mut inbound.readers.lock(), self, registry);
        }
    }

    fn progress(&self, registry: &Registry, rank: usize, seen: u64, timeout: Duration) {
        let inbound = self
            .inbound_of(rank)
            .expect("a waiting rank is hosted by its transport");
        POLL_SET.with_borrow_mut(|fds| {
            {
                let mut readers = inbound.readers.lock();
                inbound.drain(&mut readers, self, registry);
                inbound.poll_readers(&readers, fds);
            }
            if inbound.delivered.load(Ordering::SeqCst) == seen {
                fds.push(inbound.doorbell.poll_fd());
                if sys::wait(fds, timeout) {
                    if fds.last().is_some_and(sys::PollFd::ready) {
                        inbound.doorbell.clear();
                    }
                    inbound.drain(&mut inbound.readers.lock(), self, registry);
                }
            }
            fds.clear();
        });
    }

    fn ring_all(&self) {
        for inbound in &self.inbound {
            inbound.doorbell.ring();
        }
    }

    fn yields(&self) -> bool {
        false
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let _ = self.shared.registry.set(Arc::downgrade(registry));
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire.
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
        let frame = stream_frame(wire::data_len(&env), |out| {
            wire::encode_data_into(out, route.comm, route.dst_local, &env)
        });
        let _ = self.shared.send(link, &frame, registry);
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only per-process mode (one
        // local rank) needs to broadcast.
        let shared = &self.shared;
        let Some(registry) = shared.registry.get().and_then(Weak::upgrade) else {
            return;
        };
        if shared.inbound.len() != 1 {
            return;
        }
        let inner = wire::encode_ctrl(ctrl);
        let frame = stream_frame(inner.len(), |out| out.extend_from_slice(&inner));
        for link in shared.links.values() {
            let _ = shared.send(link, &frame, &registry);
        }
    }

    fn shutdown(&self) {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::Release);
        shared.ring_all();
        if let Some(registry) = shared.registry.get().and_then(Weak::upgrade) {
            for inbound in &shared.inbound {
                inbound.drain(&mut inbound.readers.lock(), shared, &registry);
            }
        }
    }

    fn progress(&self) -> Option<Arc<dyn Progress>> {
        Some(Arc::clone(&self.shared) as Arc<dyn Progress>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;
    use crate::error::CommError;
    use crate::registry::WORLD_COMM_ID;
    use crate::trace::RankTrace;
    use crate::transport::Route;
    use beatnik_prng::Rng;
    use beatnik_telemetry::metrics::MetricsRegistry;
    use beatnik_telemetry::SpanRecorder;

    fn route(src: usize, dst: usize) -> Route {
        Route {
            comm: WORLD_COMM_ID,
            dst_local: dst,
            src_world: src,
            dst_world: dst,
        }
    }

    /// Drain `rank`'s streams until `(src, tag)` arrives.
    fn recv_u64(t: &TcpTransport, registry: &Registry, src: usize, rank: usize, tag: u64)
        -> Vec<u64> {
        let mb = registry.mailbox(WORLD_COMM_ID, rank);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            Progress::drain(&*t.shared, registry, rank);
            let env = mb.recv_matching_timeout(src, tag, mb.interrupt_seq(), Duration::ZERO);
            if let Some(env) = env {
                return env.into_data::<u64>();
            }
            assert!(Instant::now() < deadline, "rank {rank} timed out waiting for tag {tag}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Poll `done` until it holds, failing after `limit`.
    fn within(limit: Duration, what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + limit;
        while !done() {
            assert!(Instant::now() < deadline, "{what} within {limit:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn loopback_builds_a_full_mesh_of_paired_streams() {
        let t = TcpTransport::loopback(4).unwrap();
        assert_eq!(t.shared.links.len(), 12);
        for ((owner, peer), link) in &t.shared.links {
            assert_eq!((link.owner, link.peer), (*owner, *peer));
            // The two ends of a pair are the two ends of one socket.
            let back = &t.shared.links[&(*peer, *owner)];
            assert_eq!(
                link.stream.local_addr().unwrap(),
                back.stream.peer_addr().unwrap()
            );
        }
        for rank in 0..4 {
            assert_eq!(t.shared.inbound_of(rank).unwrap().readers.lock().len(), 3);
        }
    }

    #[test]
    fn frames_cross_a_socket_and_land_in_the_mailbox() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2).unwrap();
        t.attach(&registry);
        t.deliver(
            &registry,
            route(0, 1),
            Envelope::new(0, 7, vec![1u64, 2, 3]),
        );
        assert_eq!(recv_u64(&t, &registry, 0, 1, 7), vec![1, 2, 3]);
        // Self-sends bypass the wire entirely.
        t.deliver(&registry, route(1, 1), Envelope::new(1, 8, vec![9u64]));
        assert_eq!(recv_u64(&t, &registry, 1, 1, 8), vec![9]);
        t.shutdown();
    }

    /// What feeding a byte stream through one reader did.
    struct Walk {
        /// Frames applied.
        delivered: u64,
        /// The walk refused the bytes and ended the link.
        torn: bool,
        /// Bytes of an unfinished frame left in the inbox.
        leftover: usize,
        /// Largest the inbox buffer grew.
        peak: usize,
    }

    /// Feed `pieces` of a byte stream through `reader`, starting from an
    /// empty inbox, as reads of exactly those sizes would, applying what
    /// it delivers to `registry`.
    fn walk(reader: &mut Reader, registry: &Registry, pieces: &[&[u8]]) -> Walk {
        reader.inbox = Inbox::new();
        reader.link.saw_bye.store(false, Ordering::Release);
        let delivered = AtomicU64::new(0);
        let mut peak = 0;
        for piece in pieces {
            let mut rest = *piece;
            while !rest.is_empty() {
                let spare = reader.inbox.spare();
                let n = rest.len().min(spare.len());
                spare[..n].copy_from_slice(&rest[..n]);
                reader.inbox.tail += n;
                rest = &rest[n..];
                peak = peak.max(reader.inbox.buf.len());
                if !drain_reader_frames(reader, registry, &delivered) {
                    return Walk {
                        delivered: delivered.into_inner(),
                        torn: true,
                        leftover: reader.inbox.tail - reader.inbox.head,
                        peak,
                    };
                }
            }
        }
        Walk {
            delivered: delivered.into_inner(),
            torn: false,
            leftover: reader.inbox.tail - reader.inbox.head,
            peak,
        }
    }

    /// Rank 1's reader of its stream from rank 0, on an unattached pair.
    fn with_reader<R>(f: impl FnOnce(&mut Reader) -> R) -> R {
        let t = TcpTransport::loopback(2).unwrap();
        let inbound = t.shared.inbound_of(1).unwrap();
        let mut readers = inbound.readers.lock();
        f(readers.iter_mut().find(|r| r.link.peer == 0).unwrap())
    }

    fn data_frame(tag: u64, data: Vec<u64>) -> Vec<u8> {
        let env = Envelope::new(0, tag, data);
        stream_frame(wire::data_len(&env), |out| {
            wire::encode_data_into(out, WORLD_COMM_ID, 1, &env)
        })
    }

    #[test]
    fn a_stream_split_anywhere_yields_the_same_envelopes_as_one_read() {
        // Small frames and one larger than the inbox, as rank 0 would
        // write them toward rank 1; where the third frame lies.
        let mut stream = Vec::new();
        let mut want = Vec::new();
        let mut third = 0..0;
        for (i, n) in [3u64, 0, 700, 1, INBOX_BYTES as u64 / 8 + 5, 64]
            .into_iter()
            .enumerate()
        {
            let tag = 100 + i as u64;
            let data: Vec<u64> = (0..n).map(|k| k * 7 + tag).collect();
            let frame = data_frame(tag, data.clone());
            if i == 2 {
                third = stream.len()..stream.len() + frame.len();
            }
            stream.extend_from_slice(&frame);
            want.push((tag, data));
        }
        let feed = |reader: &mut Reader, pieces: &[&[u8]]| {
            let registry = Registry::new();
            let w = walk(reader, &registry, pieces);
            assert!(!w.torn && w.leftover == 0, "bytes left unparsed");
            assert_eq!(w.delivered, want.len() as u64, "frames counted");
            let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
            for (tag, data) in &want {
                let env =
                    mailbox.recv_matching_timeout(0, *tag, mailbox.interrupt_seq(), Duration::ZERO);
                assert_eq!(
                    &env.unwrap_or_else(|| panic!("tag {tag} not delivered"))
                        .into_data::<u64>(),
                    data
                );
            }
        };
        with_reader(|reader| {
            feed(reader, &[&stream]);
            let bytes: Vec<&[u8]> = stream.chunks(1).collect();
            feed(reader, &bytes);
            // Every split point of one frame: before it, inside the
            // length prefix and the inner frame, and after it.
            for cut in third.start..=third.end {
                let (a, b) = stream.split_at(cut);
                feed(reader, &[a, b]);
            }
        });
    }

    #[test]
    fn a_handoff_token_on_a_stream_ends_the_link_instead_of_panicking() {
        let token = wire::encode_handoff(WORLD_COMM_ID, 1, 0xDEAD);
        let mut stream = data_frame(1, vec![5]);
        stream.extend(stream_frame(token.len(), |out| {
            out.extend_from_slice(&token)
        }));
        stream.extend(data_frame(2, vec![6]));
        let registry = Registry::new();
        let w = with_reader(|reader| walk(reader, &registry, &[&stream]));
        assert!(w.torn, "a handoff token must end the link");
        assert_eq!(w.delivered, 1, "only the frame before the token lands");
    }

    #[test]
    fn short_or_inconsistent_hello_and_table_frames_are_errors() {
        let mut hello = 3u64.to_le_bytes().to_vec();
        hello.extend_from_slice(&20u16.to_le_bytes());
        hello.extend_from_slice(b"127.0.0.1:9");
        // The address length says 20 bytes, and 11 follow.
        assert!(decode_hello(&hello).is_err());
        assert!(decode_hello(&hello[..9]).is_err());
        hello[8..10].copy_from_slice(&11u16.to_le_bytes());
        assert_eq!(decode_hello(&hello).unwrap(), (3, "127.0.0.1:9".to_owned()));

        let table = encode_table(&HashMap::from([
            (1, "a:1".to_owned()),
            (2, "b:2".to_owned()),
        ]));
        assert_eq!(decode_table(&table).unwrap().len(), 2);
        for cut in 0..table.len() {
            assert!(
                decode_table(&table[..cut]).is_err(),
                "a table cut at {cut} decoded"
            );
        }
        let mut huge = table.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_table(&huge).is_err());
    }

    #[test]
    fn an_oversized_handshake_length_is_refused_before_reading_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        (&dialer).write_all(&u32::MAX.to_le_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = read_one_frame(&mut accepted, deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Valid multi-frame streams with a byte flipped, cut short, or
    /// grown: every one is taken whole or ends the link, with no panic
    /// and no buffer larger than what arrived could justify.
    #[test]
    fn seeded_stream_mutations_deliver_or_tear_and_never_panic() {
        let (mut whole, mut torn) = (0, 0);
        with_reader(|reader| {
            for seed in 0..2_500u64 {
                let mut rng = Rng::seed_from_u64(seed);
                let mut stream = Vec::new();
                let frames = 1 + rng.gen_index(0..4);
                for _ in 0..frames {
                    let inner = match rng.gen_index(0..3) {
                        0 => {
                            let data: Vec<u64> =
                                (0..rng.gen_index(0..40)).map(|_| rng.next_u64()).collect();
                            wire::encode_data(
                                WORLD_COMM_ID,
                                1,
                                &Envelope::new(0, rng.next_u64(), data),
                            )
                        }
                        1 => {
                            let data: Vec<u8> = (0..rng.gen_index(0..300))
                                .map(|_| rng.next_u64() as u8)
                                .collect();
                            wire::encode_data(WORLD_COMM_ID, 1, &Envelope::new(0, 9, data))
                        }
                        _ => wire::encode_ctrl(CtrlMsg::Failed(rng.next_u64() as usize)),
                    };
                    stream.extend(stream_frame(inner.len(), |out| {
                        out.extend_from_slice(&inner)
                    }));
                }
                let clean = stream.clone();
                match rng.gen_index(0..3) {
                    0 => {
                        for _ in 0..1 + rng.gen_index(0..3) {
                            let at = rng.gen_index(0..stream.len());
                            stream[at] ^= 1 + rng.gen_index(0..255) as u8;
                        }
                    }
                    1 => stream.truncate(rng.gen_index(0..stream.len())),
                    _ => {
                        let at = rng.gen_index(0..stream.len() + 1);
                        let extra: Vec<u8> = (0..1 + rng.gen_index(0..8))
                            .map(|_| rng.next_u64() as u8)
                            .collect();
                        stream.splice(at..at, extra);
                    }
                }
                // The decoder alone, on every inner frame the mutated
                // bytes could hold.
                for start in 0..stream.len().min(8) {
                    let _ = wire::decode(&stream[start..]);
                    let end = start + rng.gen_index(0..stream.len() - start + 1);
                    let _ = wire::decode(&stream[start..end]);
                }
                // The walk, over reads of random sizes.
                let mut pieces = Vec::new();
                let mut rest = &stream[..];
                while !rest.is_empty() {
                    let (piece, tail) = rest.split_at(1 + rng.gen_index(0..rest.len()));
                    pieces.push(piece);
                    rest = tail;
                }
                let w = walk(reader, &Registry::new(), &pieces);
                assert!(
                    w.peak <= INBOX_BYTES.max(2 * stream.len() + READ_MIN),
                    "seed {seed}: a {}-byte stream grew the inbox to {} bytes",
                    stream.len(),
                    w.peak
                );
                assert!(
                    w.delivered <= frames as u64 + 8,
                    "seed {seed}: {} frames out of thin air",
                    w.delivered
                );
                // A frame left unfinished meets EOF next: that too ends
                // the link.
                if w.torn || w.leftover > 0 {
                    torn += 1;
                } else {
                    whole += 1;
                }
                if stream == clean {
                    assert!(
                        !w.torn && w.leftover == 0 && w.delivered == frames as u64,
                        "seed {seed}"
                    );
                }
            }
        });
        assert!(
            whole > 100 && torn > 100,
            "{whole} taken whole, {torn} torn"
        );
    }

    /// The race the delivered count closes, played out in order on one
    /// thread of an unattached pair: rank 1 reads its count, a frame from
    /// its peer arrives and another drain of rank 1's (a blocked writer's
    /// or `test()`'s) delivers it, and only then does rank 1 call
    /// `progress` — which must return without sleeping, leaving the frame
    /// in the mailbox. A peer's frame that is still on the socket when
    /// `progress` runs is drained there, without a sleep too. With the
    /// count current and nothing coming, the same call does sleep, until
    /// its timeout or a ring.
    #[test]
    fn a_delivery_between_the_count_and_the_sleep_is_not_slept_through() {
        let registry = Arc::new(Registry::new());
        let t = TcpTransport::loopback(2).unwrap();
        let shared = &*t.shared;
        let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
        let take = |tag| {
            let since = mailbox.interrupt_seq();
            let env = mailbox.recv_matching_timeout(0, tag, since, Duration::ZERO);
            env.unwrap_or_else(|| panic!("tag {tag} delivered")).into_data::<u64>()
        };
        let seen = shared.epoch(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![5u64]));
        within(Duration::from_secs(10), "another drain delivered", || {
            Progress::drain(shared, &registry, 1);
            shared.epoch(1) != seen
        });
        let started = Instant::now();
        shared.progress(&registry, 1, seen, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slept {:?} past a delivery",
            started.elapsed()
        );
        assert_eq!(take(7), vec![5]);

        let seen = shared.epoch(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 8, vec![6u64]));
        let started = Instant::now();
        while shared.epoch(1) == seen {
            shared.progress(&registry, 1, seen, Duration::from_secs(10));
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slept {:?} past a frame on the socket",
            started.elapsed()
        );
        assert_eq!(take(8), vec![6]);

        let started = Instant::now();
        shared.progress(&registry, 1, shared.epoch(1), Duration::from_millis(30));
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "woke with nothing to read"
        );

        let ringer = {
            let t = Arc::clone(&t.shared);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                t.ring_all();
            })
        };
        let started = Instant::now();
        shared.progress(&registry, 1, shared.epoch(1), Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a ring did not wake the sleeper"
        );
        ringer.join().unwrap();
    }

    /// A loopback pair attached to a registry that has the transport
    /// installed, as a world runner builds it, so a failure report's
    /// broadcast comes back into the transport.
    fn attached_pair() -> (Arc<TcpTransport>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let t = Arc::new(TcpTransport::loopback(2).unwrap());
        registry.install_transport(Arc::clone(&t) as Arc<dyn Transport>);
        t.attach(&registry);
        (t, registry)
    }

    /// A frame no socket pair buffers whole: a writer blocks on it until
    /// the peer's reader drains.
    fn stalling_frame() -> Vec<u8> {
        let env = Envelope::new(0, 7, vec![5u8; 16 << 20]);
        stream_frame(wire::data_len(&env), |out| {
            wire::encode_data_into(out, WORLD_COMM_ID, 1, &env)
        })
    }

    /// Rank 0 writes a frame rank 1 does not read:
    /// the writer blocks, and sleeps in `poll(2)` instead of yielding
    /// for as long as the stall lasts; once the test drains rank 1's
    /// stream the whole frame arrives and the write succeeds.
    #[test]
    fn a_writer_to_a_peer_that_stops_reading_completes_once_the_peer_drains() {
        let t = TcpTransport::loopback(2).unwrap();
        let registry = Registry::new();
        let frame = stalling_frame();
        let link = &t.shared.links[&(0, 1)];
        let mb = registry.mailbox(WORLD_COMM_ID, 1);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let wrote = t.shared.send(link, &frame, &registry);
                (wrote, WRITE_YIELDS.with(std::cell::Cell::get))
            });
            std::thread::sleep(Duration::from_millis(100));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let rank1 = t.shared.inbound_of(1).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while mb.is_empty() {
                assert!(Instant::now() < deadline, "the frame arrived within 30 s");
                rank1.drain(&mut rank1.readers.lock(), &t.shared, &registry);
                std::thread::yield_now();
            }
            let (wrote, yields) = writer.join().unwrap();
            wrote.expect("the write completes");
            // A few yields per full buffer; yielding through the stall
            // took hundreds of thousands.
            assert!(yields < 10_000, "the writer yielded {yields} times");
        });
        let got = mb
            .recv_matching_timeout(0, 7, mb.interrupt_seq(), Duration::ZERO)
            .expect("the frame is queued")
            .into_data::<u8>();
        assert!(got.len() == 16 << 20 && got.iter().all(|&b| b == 5));
    }

    /// `end_link` shuts the socket of a torn stream down, and a writer
    /// blocked on that socket must fail, not wait for a drain that will
    /// never come.
    #[test]
    fn a_stream_torn_under_a_blocked_writer_ends_the_write_with_an_error() {
        let t = TcpTransport::loopback(2).unwrap();
        let registry = Registry::new();
        let frame = stalling_frame();
        let link = &t.shared.links[&(0, 1)];
        std::thread::scope(|s| {
            let writer = s.spawn(|| t.shared.send(link, &frame, &registry));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let torn = Instant::now();
            link.stream.shutdown(Shutdown::Both).unwrap();
            let wrote = writer.join().unwrap();
            assert!(wrote.is_err(), "a write into a torn stream succeeded");
            assert!(torn.elapsed() < Duration::from_secs(1), "took {:?}", torn.elapsed());
        });
    }

    /// An abort rings the blocked writer's doorbell: it gives the frame
    /// up at once, not at the end of its poll slice.
    #[test]
    fn an_abort_cuts_a_blocked_writers_sleep_short() {
        let t = Arc::new(TcpTransport::loopback(2).unwrap());
        let registry = Arc::new(Registry::new());
        registry.install_transport(Arc::clone(&t) as Arc<dyn Transport>);
        t.attach(&registry);
        let frame = stalling_frame();
        let link = &t.shared.links[&(0, 1)];
        std::thread::scope(|s| {
            let writer = s.spawn(|| t.shared.send(link, &frame, &registry));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let aborted = Instant::now();
            registry.signal_abort();
            let wrote = writer.join().unwrap();
            assert_eq!(wrote.map_err(|e| e.kind()), Err(io::ErrorKind::ConnectionAborted));
            assert!(
                aborted.elapsed() < WRITE_SLICE / 2,
                "took {:?}",
                aborted.elapsed()
            );
        });
    }

    /// Two transports in one process over real sockets, as two
    /// single-rank "processes" would hold them: dropping one end without
    /// a goodbye closes its sockets, and the survivor marks the peer
    /// failed as soon as it reads the EOF — nothing is redialled.
    #[test]
    fn abrupt_peer_death_marks_the_rank_failed() {
        let config = CommConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let child_cfg = config.clone();
        let child =
            std::thread::spawn(move || TcpTransport::child(&addr, 1, 2, &child_cfg).unwrap());
        let parent = Arc::new(TcpTransport::parent(listener, 2, &config).unwrap());
        let child_t = child.join().unwrap();
        let parent_reg = Arc::new(Registry::new());
        parent_reg.install_transport(Arc::clone(&parent) as Arc<dyn Transport>);
        parent.attach(&parent_reg);
        drop(child_t);
        within(Duration::from_secs(5), "the dead peer marked failed", || {
            Progress::drain(&*parent.shared, &parent_reg, 0);
            parent_reg.is_failed(1)
        });
        assert_eq!(parent_reg.link_downs(), [CommError::LinkDown { peer: 1 }]);
        parent.shutdown();
    }

    /// A stream shut down under a rank blocked in `recv` from its peer
    /// fails the receive with `RankFailed` instead of leaving it to its
    /// timeout.
    #[test]
    fn a_stream_torn_mid_run_fails_a_blocked_recv() {
        let (t, registry) = attached_pair();
        let comm = Communicator::new(
            Arc::clone(&registry),
            WORLD_COMM_ID,
            0,
            2,
            Arc::new(vec![0, 1]),
            Arc::new(RankTrace::with_registry(&MetricsRegistry::new(), 0)),
            Arc::new(SpanRecorder::disabled()),
            Duration::from_secs(60),
        );
        t.deliver(&registry, route(1, 0), Envelope::new(1, 3, vec![8u64]));
        assert_eq!(
            comm.recv::<u64>(1, 3),
            vec![8],
            "the stream works before the tear"
        );
        let tear = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                let _ = t.shared.links[&(1, 0)].stream.shutdown(Shutdown::Both);
            })
        };
        let started = Instant::now();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comm.with_recv_timeout(Duration::from_secs(30))
                .recv::<u64>(1, 4)
        }))
        .expect_err("a receive from a torn stream");
        let failed = got
            .downcast_ref::<crate::CollectiveFailed>()
            .map(|f| &f.error);
        assert!(
            matches!(failed, Some(CommError::RankFailed { failed: 1, .. })),
            "a torn stream must fail the receive: {failed:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "took {:?}",
            started.elapsed()
        );
        tear.join().unwrap();
        assert!(registry
            .link_downs()
            .contains(&CommError::LinkDown { peer: 1 }));
        t.shutdown();
    }

    /// A peer that says `BYE` and then closes its side is gone, not
    /// failed: its EOF ends the link with nothing in the ledger.
    #[test]
    fn bye_then_eof_marks_nothing() {
        let (t, registry) = attached_pair();
        let bye = wire::encode_ctrl(CtrlMsg::Bye(1));
        let link = &t.shared.links[&(1, 0)];
        let frame = stream_frame(bye.len(), |out| out.extend_from_slice(&bye));
        t.shared.send(link, &frame, &registry).unwrap();
        link.stream.shutdown(Shutdown::Write).unwrap();
        let rank0 = t.shared.inbound_of(0).unwrap();
        within(Duration::from_secs(10), "rank 0 read the EOF", || {
            Progress::drain(&*t.shared, &registry, 0);
            rank0.readers.lock().is_empty()
        });
        // Give a failure report, had one been sent, time to land.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !registry.any_failed(),
            "failed: {:?}",
            registry.failed_snapshot()
        );
        assert!(registry.link_downs().is_empty());
        t.shutdown();
    }
}
