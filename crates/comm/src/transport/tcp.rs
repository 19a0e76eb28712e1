//! The TCP pipe: one plain byte stream per rank pair, under [`Wire`].
//!
//! A stream carries [`wire`] frames (`len u32 | inner`) back to back.
//! There is no tag, sequence number, checksum or send window: the
//! kernel's stream delivers bytes in order, intact, or not at all, and
//! that is the reliability MPI's TCP transports build on too.
//!
//! What the pipe adds to the wire:
//!
//! * **bytes** — nonblocking sockets with `TCP_NODELAY`; a write takes
//!   what the socket buffer has room for, so a frame may go out in
//!   pieces under its link's write lock;
//! * **sleep** — `poll(2)` on the rank's open streams and its doorbell,
//!   one end of a socket pair that stays readable while a ring is
//!   pending; a blocked writer adds `POLLOUT` on its stream, and once it
//!   has heard the doorbell leaves it to the rank's other threads. The
//!   epoch counts the frames delivered to the rank. Waits take no yield
//!   turns: they sleep in `poll(2)` at once.
//!
//! EOF, a reset or any other socket error on a stream whose peer has not
//! said `BYE` ends the link as a failure, and so do bytes no frame can
//! be made of: the wire reports the peer down and the pipe shuts the
//! socket, so the peer sees EOF and a writer still on it gets an error.
//!
//! Two modes share the code: **loopback** (ranks are threads, both
//! socket ends live in this process) and **per-process** (a
//! parent/child rendezvous builds a full mesh, then closes its
//! listeners).

use super::wire::{self, Pipe, Wire};
use super::TransportKind;
use crate::config::CommConfig;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest rendezvous frame (a hello or the address table) either side
/// accepts: room for tens of thousands of ranks' addresses.
const MAX_HANDSHAKE_FRAME: usize = 1 << 20;

/// A waiting rank's sleep: `poll(2)` on its sockets and its doorbell; a
/// blocked writer's: on its stream too.
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
    /// to whole milliseconds) passes.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed array of `pollfd`s,
        // and `nfds` is its length.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms);
        }
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

    pub fn wait(_: &mut [PollFd], timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
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

/// One socket of a rank pair, as one of its ranks holds it: that rank
/// writes toward its peer on it and reads the reverse direction.
pub struct Link {
    /// Nonblocking.
    stream: TcpStream,
    /// The rank still reads this stream, so its sleeps poll it.
    reading: AtomicBool,
}

/// What one rank hosted here sleeps on, and its epoch.
struct Bell {
    rank: usize,
    doorbell: sys::Doorbell,
    /// Frames delivered to the rank so far.
    delivered: AtomicU64,
    /// The rank's links, whose streams it reads.
    links: Vec<Arc<Link>>,
}

impl Bell {
    /// Readable entries for the streams the rank still reads.
    fn watch(&self, fds: &mut Vec<sys::PollFd>) {
        let open = self.links.iter().filter(|l| l.reading.load(Ordering::Acquire));
        fds.extend(open.map(|l| sys::PollFd::readable(&l.stream)));
    }
}

thread_local! {
    /// What a sleeping thread polls. One per thread, so a sleep
    /// allocates nothing once the first has sized it.
    static POLL_SET: RefCell<Vec<sys::PollFd>> = const { RefCell::new(Vec::new()) };
}

/// The TCP pipe: a bell per hosted rank.
pub struct Tcp {
    bells: Vec<Bell>,
}

impl Tcp {
    fn bell(&self, rank: usize) -> &Bell {
        self.bells
            .iter()
            .find(|b| b.rank == rank)
            .expect("a sleeping rank is hosted by its transport")
    }
}

impl Pipe for Tcp {
    type Link = Arc<Link>;
    type Reader = Arc<Link>;
    const KIND: TransportKind = TransportKind::Tcp;
    const YIELDS: bool = false;

    fn try_write(&self, link: &Arc<Link>, _dst: usize, bytes: &[u8]) -> io::Result<usize> {
        (&link.stream).write(bytes)
    }

    fn try_read(&self, link: &mut Arc<Link>, _src: usize, buf: &mut [u8]) -> Result<usize, Option<String>> {
        loop {
            match (&link.stream).read(buf) {
                Ok(0) => return Err(None),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(None),
            }
        }
    }

    fn hang_up(&self, link: &Arc<Link>, failed: bool) {
        link.reading.store(false, Ordering::Release);
        if failed {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    fn epoch(&self, rank: usize) -> u64 {
        self.bells
            .iter()
            .find(|b| b.rank == rank)
            .map_or(0, |b| b.delivered.load(Ordering::SeqCst))
    }

    fn delivered(&self, rank: usize, frames: u64) {
        self.bell(rank).delivered.fetch_add(frames, Ordering::SeqCst);
    }

    fn sleep(&self, rank: usize, _seen: u64, timeout: Duration) {
        let bell = self.bell(rank);
        POLL_SET.with_borrow_mut(|fds| {
            bell.watch(fds);
            fds.push(bell.doorbell.poll_fd());
            sys::wait(fds, timeout);
            if fds.last().is_some_and(sys::PollFd::ready) {
                bell.doorbell.clear();
            }
            fds.clear();
        });
    }

    fn sleep_writer(&self, link: &Arc<Link>, src: usize, heard: &mut bool, timeout: Duration) {
        let bell = self.bell(src);
        POLL_SET.with_borrow_mut(|fds| {
            fds.push(sys::PollFd::writable(&link.stream));
            bell.watch(fds);
            let listen = !*heard;
            if listen {
                fds.push(bell.doorbell.poll_fd());
            }
            sys::wait(fds, timeout);
            *heard |= listen && fds.last().is_some_and(sys::PollFd::ready);
            fds.clear();
        });
    }

    fn ring(&self, rank: usize) {
        self.bell(rank).doorbell.ring();
    }
}

/// The wire over the streams of a rendezvous, `(owner, peer, stream)`.
fn mesh(streams: Vec<(usize, usize, TcpStream)>, hosted: &[usize], num_ranks: usize) -> io::Result<Wire<Tcp>> {
    let mut bells = hosted
        .iter()
        .map(|&rank| {
            Ok(Bell {
                rank,
                doorbell: sys::Doorbell::new()?,
                delivered: AtomicU64::new(0),
                links: Vec::new(),
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let (mut links, mut readers) = (Vec::new(), Vec::new());
    for (owner, peer, stream) in streams {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let link = Arc::new(Link {
            stream,
            reading: AtomicBool::new(true),
        });
        let bell = bells.iter_mut().find(|b| b.rank == owner);
        bell.expect("links are owned by hosted ranks").links.push(Arc::clone(&link));
        readers.push((owner, peer, Arc::clone(&link)));
        links.push(((owner, peer), link));
    }
    Ok(Wire::new(Tcp { bells }, num_ranks, hosted, links, readers))
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

/// Build a loopback wire: all ranks are threads here, and both ends of
/// every pair's socket live in this process.
pub fn loopback(num_ranks: usize) -> io::Result<Wire<Tcp>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut streams = Vec::new();
    for i in 0..num_ranks {
        for j in (i + 1)..num_ranks {
            let a = TcpStream::connect(addr)?;
            let (b, _) = listener.accept()?;
            // `a` is rank i's end of the (i, j) pair, `b` is rank j's:
            // writes into `a` surface on `b` and vice versa.
            streams.push((i, j, a));
            streams.push((j, i, b));
        }
    }
    let hosted: Vec<usize> = (0..num_ranks).collect();
    mesh(streams, &hosted, num_ranks)
}

/// Parent side of the per-process rendezvous: accept a connection from
/// every child (bounded by the handshake deadline, so a child that
/// crashes during startup yields a typed error instead of a hang), learn
/// its listen address, then broadcast the full table so children can
/// mesh among themselves.
pub fn parent(listener: TcpListener, num_ranks: usize, config: &CommConfig) -> io::Result<Wire<Tcp>> {
    let deadline = Instant::now() + config.handshake_timeout;
    listener.set_nonblocking(true)?;
    let mut streams = Vec::new();
    let mut tab: HashMap<usize, String> = HashMap::new();
    for _ in 1..num_ranks {
        let mut stream = accept_by(&listener, deadline, || {
            format!(
                "rendezvous timed out: {}/{} children connected within {:?}",
                streams.len(),
                num_ranks - 1,
                config.handshake_timeout
            )
        })?;
        let (rank, listen_addr) = read_hello(&mut stream, deadline)?;
        tab.insert(rank, listen_addr);
        streams.push((0, rank, stream));
    }
    let table = encode_table(&tab);
    for (_, _, stream) in &streams {
        stream.set_nodelay(true)?;
        write_frame(stream, &table)?;
    }
    mesh(streams, &[0], num_ranks)
}

/// Child side of the rendezvous: dial the parent, announce our own
/// listen address, receive the sibling table, then dial every
/// lower-ranked sibling and accept from every higher-ranked one.
pub fn child(
    parent_addr: &str,
    my_rank: usize,
    num_ranks: usize,
    config: &CommConfig,
) -> io::Result<Wire<Tcp>> {
    let deadline = Instant::now() + config.handshake_timeout;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut streams = Vec::new();

    let mut parent = TcpStream::connect(parent_addr)?;
    write_hello(&parent, my_rank, &listener.local_addr()?.to_string())?;
    let table = decode_table(&read_one_frame(&mut parent, deadline)?)?;
    streams.push((my_rank, 0, parent));

    for peer in 1..my_rank {
        let addr = table.get(&peer).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("rank {peer} not in table"))
        })?;
        let stream = TcpStream::connect(addr.as_str())?;
        write_hello(&stream, my_rank, "")?;
        streams.push((my_rank, peer, stream));
    }
    listener.set_nonblocking(true)?;
    for _ in (my_rank + 1)..num_ranks {
        let mut stream = accept_by(&listener, deadline, || {
            format!("rank {my_rank}: rendezvous timed out waiting for higher siblings")
        })?;
        let (rank, _) = read_hello(&mut stream, deadline)?;
        streams.push((my_rank, rank, stream));
    }
    mesh(streams, &[my_rank], num_ranks)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write one length-prefixed handshake frame (rendezvous sockets block).
fn write_frame(mut stream: &TcpStream, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&wire::frame(payload.len(), |out| out.extend_from_slice(payload)))
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

/// Read one handshake frame by `deadline` (rendezvous sockets block),
/// refusing a length over [`MAX_HANDSHAKE_FRAME`] before anything is
/// sized from it.
fn read_one_frame(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let left = deadline.saturating_duration_since(Instant::now());
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_HANDSHAKE_FRAME {
        return Err(invalid(format!("{len}-byte handshake frame")));
    }
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;
    use crate::error::CommError;
    use crate::message::Envelope;
    use crate::registry::{Registry, WORLD_COMM_ID};
    use crate::trace::RankTrace;
    use crate::transport::wire::pipe_tests::{self, attached, data_frame};
    use crate::transport::wire::{Inbox, INBOX_BYTES, READ_MIN, WRITE_SLICE, WRITE_YIELDS};
    use crate::transport::{CtrlMsg, Progress, Route, Transport};
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
    fn recv_u64(t: &Wire<Tcp>, registry: &Registry, src: usize, rank: usize, tag: u64) -> Vec<u64> {
        let mb = registry.mailbox(WORLD_COMM_ID, rank);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            t.0.drain(registry, rank);
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

    /// The stream of link `owner -> peer`.
    fn stream(t: &Wire<Tcp>, owner: usize, peer: usize) -> &TcpStream {
        &t.0.links[&(owner, peer)].1.stream
    }

    #[test]
    fn loopback_builds_a_full_mesh_of_paired_streams() {
        let t = loopback(4).unwrap();
        assert_eq!(t.0.links.len(), 12);
        for &(owner, peer) in t.0.links.keys() {
            // The two ends of a pair are the two ends of one socket.
            assert_eq!(
                stream(&t, owner, peer).local_addr().unwrap(),
                stream(&t, peer, owner).peer_addr().unwrap()
            );
        }
        for rank in 0..4 {
            assert_eq!(t.0.inbound_of(rank).unwrap().readers.lock().len(), 3);
            assert_eq!(t.0.pipe.bell(rank).links.len(), 3);
        }
    }

    #[test]
    fn frames_cross_a_socket_and_land_in_the_mailbox() {
        let (t, registry) = attached(loopback(2).unwrap());
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![1u64, 2, 3]));
        assert_eq!(recv_u64(&t, &registry, 0, 1, 7), vec![1, 2, 3]);
        // Self-sends bypass the wire entirely.
        t.deliver(&registry, route(1, 1), Envelope::new(1, 8, vec![9u64]));
        assert_eq!(recv_u64(&t, &registry, 1, 1, 8), vec![9]);
        t.shutdown();
    }

    /// What feeding a byte stream through one inbox did.
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

    /// Feed `pieces` of a byte stream from rank 0 through an empty
    /// inbox, as reads of exactly those sizes would, applying what it
    /// delivers to `registry` as the wire does.
    fn walk(t: &Wire<Tcp>, registry: &Registry, pieces: &[&[u8]]) -> Walk {
        let mut inbox = Inbox::new();
        t.0.bye[0].store(false, Ordering::Release);
        let mut delivered = 0;
        let mut peak = 0;
        let mut torn = false;
        'feed: for piece in pieces {
            let mut rest = *piece;
            while !rest.is_empty() {
                let spare = inbox.spare();
                let n = rest.len().min(spare.len());
                spare[..n].copy_from_slice(&rest[..n]);
                inbox.tail += n;
                rest = &rest[n..];
                peak = peak.max(inbox.buf.len());
                let read = inbox.frames(|inner| {
                    t.0.take(registry, 0, inner)?;
                    delivered += 1;
                    Ok(())
                });
                if read.is_err() {
                    torn = true;
                    break 'feed;
                }
            }
        }
        Walk {
            delivered,
            torn,
            leftover: inbox.tail - inbox.head,
            peak,
        }
    }

    #[test]
    fn a_stream_split_anywhere_yields_the_same_envelopes_as_one_read() {
        // Small frames and one larger than the inbox, as rank 0 would
        // write them toward rank 1; where the third frame lies.
        let t = loopback(2).unwrap();
        let mut stream = Vec::new();
        let mut want = Vec::new();
        let mut third = 0..0;
        for (i, n) in [3u64, 0, 700, 1, INBOX_BYTES as u64 / 8 + 5, 64]
            .into_iter()
            .enumerate()
        {
            let tag = 100 + i as u64;
            let data: Vec<u64> = (0..n).map(|k| k * 7 + tag).collect();
            let env = Envelope::new(0, tag, data.clone());
            let frame = wire::frame(wire::data_len(&env), |out| {
                wire::encode_data_into(out, WORLD_COMM_ID, 1, &env)
            });
            if i == 2 {
                third = stream.len()..stream.len() + frame.len();
            }
            stream.extend_from_slice(&frame);
            want.push((tag, data));
        }
        let feed = |pieces: &[&[u8]]| {
            let registry = Registry::new();
            let w = walk(&t, &registry, pieces);
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
        feed(&[&stream]);
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        feed(&bytes);
        // Every split point of one frame: before it, inside the length
        // prefix and the inner frame, and after it.
        for cut in third.start..=third.end {
            let (a, b) = stream.split_at(cut);
            feed(&[a, b]);
        }
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
        let t = loopback(2).unwrap();
        let (mut whole, mut torn) = (0, 0);
        for seed in 0..2_500u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut stream = Vec::new();
            let frames = 1 + rng.gen_index(0..4);
            for _ in 0..frames {
                let inner = match rng.gen_index(0..3) {
                    0 => {
                        let data: Vec<u64> =
                            (0..rng.gen_index(0..40)).map(|_| rng.next_u64()).collect();
                        wire::encode_data(WORLD_COMM_ID, 1, &Envelope::new(0, rng.next_u64(), data))
                    }
                    1 => {
                        let data: Vec<u8> = (0..rng.gen_index(0..300))
                            .map(|_| rng.next_u64() as u8)
                            .collect();
                        wire::encode_data(WORLD_COMM_ID, 1, &Envelope::new(0, 9, data))
                    }
                    _ => wire::encode_ctrl(CtrlMsg::Failed(rng.next_u64() as usize)),
                };
                stream.extend(wire::frame(inner.len(), |out| out.extend_from_slice(&inner)));
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
            // The decoder alone, on every inner frame the mutated bytes
            // could hold.
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
            let w = walk(&t, &Registry::new(), &pieces);
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
            // A frame left unfinished meets EOF next: that too ends the
            // link.
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
        let t = loopback(2).unwrap();
        let core = &*t.0;
        let mailbox = registry.mailbox(WORLD_COMM_ID, 1);
        let take = |tag| {
            let since = mailbox.interrupt_seq();
            let env = mailbox.recv_matching_timeout(0, tag, since, Duration::ZERO);
            env.unwrap_or_else(|| panic!("tag {tag} delivered")).into_data::<u64>()
        };
        let seen = core.epoch(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![5u64]));
        within(Duration::from_secs(10), "another drain delivered", || {
            core.drain(&registry, 1);
            core.epoch(1) != seen
        });
        let started = Instant::now();
        core.progress(&registry, 1, seen, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slept {:?} past a delivery",
            started.elapsed()
        );
        assert_eq!(take(7), vec![5]);

        let seen = core.epoch(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 8, vec![6u64]));
        let started = Instant::now();
        while core.epoch(1) == seen {
            core.progress(&registry, 1, seen, Duration::from_secs(10));
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slept {:?} past a frame on the socket",
            started.elapsed()
        );
        assert_eq!(take(8), vec![6]);

        let started = Instant::now();
        core.progress(&registry, 1, core.epoch(1), Duration::from_millis(30));
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "woke with nothing to read"
        );

        let ringer = {
            let core = Arc::clone(&t.0);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                core.ring_all();
            })
        };
        let started = Instant::now();
        core.progress(&registry, 1, core.epoch(1), Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a ring did not wake the sleeper"
        );
        ringer.join().unwrap();
    }

    /// A frame no socket pair buffers whole: a writer blocks on it until
    /// the peer's reader drains.
    fn stalling_frame() -> Vec<u8> {
        data_frame(0, 1, 7, 0x0505_0505_0505_0505, 2 << 20)
    }

    /// Rank 0 writes a frame rank 1 does not read: the writer blocks,
    /// and sleeps in `poll(2)` instead of yielding for as long as the
    /// stall lasts; once the test drains rank 1's stream the whole frame
    /// arrives and the write succeeds.
    #[test]
    fn a_writer_to_a_peer_that_stops_reading_completes_once_the_peer_drains() {
        let t = loopback(2).unwrap();
        let registry = Registry::new();
        let frame = stalling_frame();
        let mb = registry.mailbox(WORLD_COMM_ID, 1);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let wrote = t.0.send(&registry, 0, 1, &frame);
                (wrote, WRITE_YIELDS.with(std::cell::Cell::get))
            });
            std::thread::sleep(Duration::from_millis(100));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let deadline = Instant::now() + Duration::from_secs(30);
            while mb.is_empty() {
                assert!(Instant::now() < deadline, "the frame arrived within 30 s");
                t.0.drain(&registry, 1);
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
            .into_data::<u64>();
        assert!(got.len() == 2 << 20 && got.iter().all(|&b| b == 0x0505_0505_0505_0505));
    }

    /// A torn link's socket is shut down, and a writer blocked on that
    /// socket must fail, not wait for a drain that will never come.
    #[test]
    fn a_stream_torn_under_a_blocked_writer_ends_the_write_with_an_error() {
        let t = loopback(2).unwrap();
        let registry = Registry::new();
        let frame = stalling_frame();
        std::thread::scope(|s| {
            let writer = s.spawn(|| t.0.send(&registry, 0, 1, &frame));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let torn = Instant::now();
            stream(&t, 0, 1).shutdown(Shutdown::Both).unwrap();
            let wrote = writer.join().unwrap();
            assert!(wrote.is_err(), "a write into a torn stream succeeded");
            assert!(torn.elapsed() < Duration::from_secs(1), "took {:?}", torn.elapsed());
        });
    }

    /// An abort rings the blocked writer's doorbell: it gives the frame
    /// up at once, not at the end of its poll slice.
    #[test]
    fn an_abort_cuts_a_blocked_writers_sleep_short() {
        let (t, registry) = attached(loopback(2).unwrap());
        let frame = stalling_frame();
        std::thread::scope(|s| {
            let writer = s.spawn(|| t.0.send(&registry, 0, 1, &frame));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished(), "the frame fit the socket buffers");
            let aborted = Instant::now();
            registry.signal_abort();
            let wrote = writer.join().unwrap();
            assert_eq!(wrote.map_err(|e| e.kind()), Err(io::ErrorKind::ConnectionAborted));
            assert!(aborted.elapsed() < WRITE_SLICE / 2, "took {:?}", aborted.elapsed());
        });
    }

    #[test]
    fn a_writer_on_a_full_link_gives_up_on_abort_failure_bye_and_stop() {
        pipe_tests::a_writer_on_a_full_link_gives_up_on_abort_failure_bye_and_stop(
            || loopback(2).unwrap(),
            &stalling_frame(),
            0,
        );
    }

    #[test]
    fn two_writers_on_full_links_toward_each_other_both_finish() {
        // 200 frames of 64 KiB each way: far more than the socket
        // buffers hold.
        pipe_tests::two_writers_on_full_links_toward_each_other_both_finish(loopback(2).unwrap(), 200, 8192);
    }

    /// Two wires in one process over real sockets, as two single-rank
    /// "processes" would hold them: dropping one end without a goodbye
    /// closes its sockets, and the survivor marks the peer failed as
    /// soon as it reads the EOF — nothing is redialled.
    #[test]
    fn abrupt_peer_death_marks_the_rank_failed() {
        let config = CommConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let child_cfg = config.clone();
        let child = std::thread::spawn(move || child(&addr, 1, 2, &child_cfg).unwrap());
        let (parent, parent_reg) = attached(parent(listener, 2, &config).unwrap());
        drop(child.join().unwrap());
        within(Duration::from_secs(5), "the dead peer marked failed", || {
            parent.0.drain(&parent_reg, 0);
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
        let (t, registry) = attached(loopback(2).unwrap());
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
                let _ = stream(&t, 1, 0).shutdown(Shutdown::Both);
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
        let (t, registry) = attached(loopback(2).unwrap());
        let bye = wire::encode_ctrl(CtrlMsg::Bye(1));
        let frame = wire::frame(bye.len(), |out| out.extend_from_slice(&bye));
        t.0.send(&registry, 1, 0, &frame).unwrap();
        stream(&t, 1, 0).shutdown(Shutdown::Write).unwrap();
        let rank0 = t.0.inbound_of(0).unwrap();
        within(Duration::from_secs(10), "rank 0 read the EOF", || {
            t.0.drain(&registry, 0);
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
