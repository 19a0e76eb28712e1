//! The wire: one frame format, and the one transport both wire backends
//! are ([`Wire`] over a [`Pipe`]).
//!
//! ## Frames
//!
//! A frame is `len u32 | inner`, `len` counting the inner bytes, and one
//! inner frame is one envelope delivery (`DATA`) or one piece of
//! failure-ledger news (`CTRL`). All integers are little-endian; the
//! element type travels by *name* — sound because every rank of a world
//! runs the same binary, so equal names imply equal layouts (and the
//! receive side re-checks size and drop-freeness before reconstructing
//! values).
//!
//! ```text
//! frame: len u32 | inner
//! DATA:  0x00 | comm u64 | dst_local u32 | src u32 | tag u64 | ctx u64
//!             | count u64 | elem_size u32 | name_len u16 | name bytes
//!             | payload_len u64 | payload bytes
//! CTRL:  0x01 | code u8 (0 FAILED, 2 ABORT, 3 BYE) | arg u64
//! ```
//!
//! Kind `0x02` (the retired shmem handoff token) and ctrl code 1 (the
//! retired revocation) decode as unknown. A frame is built once:
//! [`frame`] reserves the prefix and [`encode_data_into`] appends the
//! inner frame behind it (the one copy of the payload). It is bounded
//! once, by [`MAX_FRAME`] on both sides. `ctx` is the sender's packed
//! causal trace context (zero on untraced runs); `comm` carries the
//! collective-channel bit as the mailbox key does.
//!
//! ## One transport over two byte pipes
//!
//! [`Wire`] is everything the TCP and shmem backends do alike: each
//! hosted rank's inbound links, their reassembly buffers ([`Inbox`]) and
//! the drain that delivers them, the self-send shortcut, the `BYE` and
//! stop flags, the control-frame broadcast, the blocked writer's loop,
//! the end of a link, and [`Progress`]. A [`Pipe`] moves bytes, the way
//! a socket does, and differs in three things: how bytes move (a socket,
//! or a mapped ring copied in and out), what a rank sleeps on (`poll(2)`
//! on sockets and a doorbell, or a futex word), and the framing it
//! shows (a stream's reads split frames anywhere; a ring publishes what
//! fits, so a frame larger than the ring goes through in pieces).
//!
//! A writer holds its link's write lock for one whole frame. While the
//! pipe takes nothing it drains its own rank's inbound (`try_lock`: a
//! thread holding it is draining already), since the rank it waits on
//! may be blocked writing to it; gives the frame up once the transport
//! stops, the peer said `BYE`, the world aborts or the peer is marked
//! failed; and otherwise yields, then sleeps in the pipe for at most
//! [`WRITE_SLICE`].

use super::{report_link_down, CtrlMsg, Progress, Route, Transport, TransportKind};
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// A decoded inner frame.
#[derive(Debug)]
pub enum Frame {
    /// An envelope for mailbox `(comm, dst_local)`.
    Data {
        /// Communicator id (channel bit included).
        comm: u64,
        /// Destination rank within the communicator.
        dst_local: usize,
        /// The reconstructed envelope.
        env: Envelope,
    },
    /// Failure-ledger news.
    Ctrl(CtrlMsg),
}

const KIND_DATA: u8 = 0x00;
const KIND_CTRL: u8 = 0x01;

const CTRL_FAILED: u8 = 0;
const CTRL_ABORT: u8 = 2;
const CTRL_BYE: u8 = 3;

/// Largest inner frame built or taken. A length prefix arrives from
/// outside the process, so it is bounded before a buffer is sized from
/// it.
pub const MAX_FRAME: usize = 1 << 30;

/// Yields a blocked writer takes before it sleeps (the rule of
/// [`crate::communicator::YIELD_TURNS`]): the reader that makes room may
/// be waiting for this very CPU.
const WRITE_YIELD_TURNS: u32 = crate::communicator::YIELD_TURNS;

/// Longest a blocked writer sleeps before it looks again; room on its
/// link or a ring of its bell ends the sleep sooner.
pub const WRITE_SLICE: Duration = Duration::from_millis(100);

#[cfg(test)]
thread_local! {
    /// Yields this thread has taken as a blocked writer.
    pub(super) static WRITE_YIELDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Build one frame in one buffer: reserve the length prefix, let `fill`
/// append the inner frame (`inner_len` bytes, a capacity hint) behind
/// it, then fill in the length.
pub fn frame(inner_len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + inner_len);
    frame.resize(4, 0);
    fill(&mut frame);
    let len = frame.len() - 4;
    assert!(len <= MAX_FRAME, "a {len}-byte message exceeds the wire's frame limit");
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame
}

/// Append one encoded envelope delivery to `out`, leaving whatever
/// `out` already holds in front of it (the length prefix [`frame`]
/// reserves). Panics with a diagnostic when the payload's element type
/// cannot legally cross a process boundary (drop glue) — the same class
/// of fatal protocol error as an MPI datatype mismatch.
pub fn encode_data_into(out: &mut Vec<u8>, comm: u64, dst_local: usize, env: &Envelope) {
    let payload = env.wire_view().unwrap_or_else(|| {
        panic!(
            "payload type `{}` cannot cross a wire transport (it has drop \
             glue); send plain-data elements or use the thread backend",
            env.type_name
        )
    });
    let name = env.type_name.as_bytes();
    assert!(name.len() <= u16::MAX as usize, "absurd type name length");
    out.reserve(data_len(env));
    out.push(KIND_DATA);
    out.extend_from_slice(&comm.to_le_bytes());
    out.extend_from_slice(&(dst_local as u32).to_le_bytes());
    out.extend_from_slice(&(env.src as u32).to_le_bytes());
    out.extend_from_slice(&env.tag.to_le_bytes());
    out.extend_from_slice(&env.ctx.to_le_bytes());
    out.extend_from_slice(&(env.count as u64).to_le_bytes());
    out.extend_from_slice(&(env.elem_size as u32).to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Bytes [`encode_data_into`] appends for `env`.
pub fn data_len(env: &Envelope) -> usize {
    55 + env.type_name.len() + env.bytes
}

/// Encode an envelope delivery as an inner frame of its own (see
/// [`encode_data_into`]).
pub fn encode_data(comm: u64, dst_local: usize, env: &Envelope) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(&mut out, comm, dst_local, env);
    out
}

/// Encode failure-ledger news as an inner frame.
pub fn encode_ctrl(msg: CtrlMsg) -> Vec<u8> {
    let (code, arg) = match msg {
        CtrlMsg::Failed(rank) => (CTRL_FAILED, rank as u64),
        CtrlMsg::Abort => (CTRL_ABORT, 0),
        CtrlMsg::Bye(rank) => (CTRL_BYE, rank as u64),
    };
    let mut out = Vec::with_capacity(10);
    out.push(KIND_CTRL);
    out.push(code);
    out.extend_from_slice(&arg.to_le_bytes());
    out
}

/// Cursor-style reader over a frame buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated frame: wanted {n} bytes at {}", self.pos))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode one inner frame (the full buffer must be exactly one frame).
pub fn decode(buf: &[u8]) -> Result<Frame, String> {
    let mut r = Reader { buf, pos: 0 };
    match r.u8()? {
        KIND_DATA => {
            let comm = r.u64()?;
            let dst_local = r.u32()? as usize;
            let src = r.u32()? as usize;
            let tag = r.u64()?;
            let ctx = r.u64()?;
            let count = r.u64()? as usize;
            let elem_size = r.u32()? as usize;
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|e| format!("bad type name: {e}"))?;
            let payload_len = r.u64()? as usize;
            if payload_len != count.saturating_mul(elem_size) {
                return Err(format!(
                    "inconsistent frame: {count} x {elem_size}B elements but {payload_len}B payload"
                ));
            }
            let payload = r.take(payload_len)?.to_vec();
            if r.pos != buf.len() {
                return Err(format!("{} trailing bytes after frame", buf.len() - r.pos));
            }
            Ok(Frame::Data {
                comm,
                dst_local,
                env: Envelope::from_wire(src, tag, count, elem_size, name, payload).with_ctx(ctx),
            })
        }
        KIND_CTRL => {
            let code = r.u8()?;
            let arg = r.u64()?;
            let msg = match code {
                CTRL_FAILED => CtrlMsg::Failed(arg as usize),
                CTRL_ABORT => CtrlMsg::Abort,
                CTRL_BYE => CtrlMsg::Bye(arg as usize),
                other => return Err(format!("unknown ctrl code {other}")),
            };
            Ok(Frame::Ctrl(msg))
        }
        other => Err(format!("unknown frame kind {other:#04x}")),
    }
}

/// How frames move on one wire backend, and what its ranks sleep on.
/// Everything else is [`Wire`]'s (see the module docs).
pub trait Pipe: Send + Sync + Sized + 'static {
    /// The write end of one directed link.
    type Link: Send + Sync;
    /// The read end of one directed link, drained by the rank it points
    /// to.
    type Reader: Send;
    /// Which backend this is.
    const KIND: TransportKind;
    /// Whether a waiting rank takes its yield turns before it sleeps
    /// ([`Progress::yields`]).
    const YIELDS: bool;

    /// Write what `link` takes now of `bytes`, the rest of one frame
    /// toward `dst`: `Ok(n)`, or `WouldBlock` while it takes nothing.
    fn try_write(&self, link: &Self::Link, dst: usize, bytes: &[u8]) -> io::Result<usize>;

    /// Read what `reader` holds now from `src` into `buf` (never empty):
    /// `Ok(0)` when it holds nothing. An `Err` ends the link: `None` for a
    /// closed stream, `Some(why)` for a pipe no byte can be taken from.
    fn try_read(&self, reader: &mut Self::Reader, src: usize, buf: &mut [u8]) -> Result<usize, Option<String>>;

    /// `reader`'s link ended and it left its rank's list; `failed` unless
    /// the peer said `BYE` or the transport stops.
    fn hang_up(&self, reader: &Self::Reader, failed: bool);

    /// `rank`'s [`Progress::epoch`].
    fn epoch(&self, rank: usize) -> u64;

    /// `frames` frames were delivered to `rank`: move its epoch.
    fn delivered(&self, rank: usize, frames: u64);

    /// Sleep until bytes arrive for `rank`, its bell rings or `timeout`
    /// passes; return at once if its epoch has moved past `seen`.
    fn sleep(&self, rank: usize, seen: u64, timeout: Duration);

    /// Sleep as `src`'s blocked writer on `link` until it takes bytes
    /// again, bytes arrive for `src`, its bell rings or `timeout` passes.
    /// `heard` starts false for each frame; a pipe whose bell stays rung
    /// until a sleeper takes the ring sets it once the writer has heard
    /// one, and leaves the bell to the rank's other threads after that.
    fn sleep_writer(&self, link: &Self::Link, src: usize, heard: &mut bool, timeout: Duration);

    /// Ring `rank`'s bell.
    fn ring(&self, rank: usize);
}

/// One wire transport over the pipe `P`. See the module docs.
pub struct Wire<P: Pipe>(pub(super) Arc<Core<P>>);

/// Reads taken from one link per drain, so one busy peer cannot hold
/// off the others.
const READS_PER_SWEEP: usize = 8;

/// Receive-buffer sizing: the initial size, and the least free space a
/// read is given.
pub(super) const INBOX_BYTES: usize = 64 * 1024;
pub(super) const READ_MIN: usize = 16 * 1024;

/// Receive buffer of one link. Bytes land at `tail`, whole frames are
/// consumed from `head`, and `buf` stays fully initialised so a read
/// goes straight into its free end.
pub(super) struct Inbox {
    pub(super) buf: Vec<u8>,
    pub(super) head: usize,
    pub(super) tail: usize,
}

impl Inbox {
    pub(super) fn new() -> Inbox {
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
    pub(super) fn spare(&mut self) -> &mut [u8] {
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

    /// Hand every whole frame in the buffer to `take`. `Err` when the
    /// bytes cannot be a frame: a length over [`MAX_FRAME`], or a frame
    /// `take` refused.
    pub(super) fn frames(&mut self, mut take: impl FnMut(&[u8]) -> Result<(), String>) -> Result<(), String> {
        while let Some(len) = self.frame_len() {
            if len > MAX_FRAME {
                return Err(format!("a {len}-byte frame"));
            }
            let (start, end) = (self.head + 4, self.head + 4 + len);
            if end > self.tail {
                break;
            }
            self.head = end;
            take(&self.buf[start..end])?;
        }
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        Ok(())
    }
}

/// The read end of one link toward a hosted rank.
pub(super) struct Incoming<P: Pipe> {
    pub(super) src: usize,
    pub(super) inbox: Inbox,
    pub(super) reader: P::Reader,
}

/// The links toward one rank hosted here that are still open, in drain
/// order. Locked by whoever drains them, for the drain only; no lock is
/// held across a sleep.
pub(super) struct Inbound<P: Pipe> {
    rank: usize,
    pub(super) readers: Mutex<Vec<Incoming<P>>>,
}

/// The transport's state, shared with the ranks' [`Progress`] handles.
pub(super) struct Core<P: Pipe> {
    pub(super) pipe: P,
    /// `(src, dst) -> link` for every link a hosted rank writes, with
    /// the lock its writer holds for one whole frame.
    pub(super) links: HashMap<(usize, usize), (Mutex<()>, P::Link)>,
    /// Every world rank hosted here (all of them in loopback).
    inbound: Vec<Inbound<P>>,
    /// The world ranks that said `BYE`: their links end quietly, and a
    /// writer gives up on them.
    pub(super) bye: Vec<AtomicBool>,
    stop: AtomicBool,
    /// Set by `attach`; weak, because the registry holds the transport.
    registry: OnceLock<Weak<Registry>>,
}

impl<P: Pipe> Wire<P> {
    /// A wire over `pipe` for the `hosted` ranks of a `num_ranks` world:
    /// `links` are the write ends the hosted ranks own, `readers` the
    /// read ends toward them as `(dst, src, reader)`, in drain order.
    pub(super) fn new(
        pipe: P,
        num_ranks: usize,
        hosted: &[usize],
        links: Vec<((usize, usize), P::Link)>,
        readers: Vec<(usize, usize, P::Reader)>,
    ) -> Wire<P> {
        let core = Core {
            pipe,
            links: links.into_iter().map(|(k, link)| (k, (Mutex::new(()), link))).collect(),
            inbound: hosted.iter().map(|&rank| Inbound { rank, readers: Mutex::new(Vec::new()) }).collect(),
            bye: (0..num_ranks).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
            registry: OnceLock::new(),
        };
        for (dst, src, reader) in readers {
            let inbound = core.inbound_of(dst).expect("readers belong to hosted ranks");
            inbound.readers.lock().push(Incoming { src, inbox: Inbox::new(), reader });
        }
        Wire(Arc::new(core))
    }
}

impl<P: Pipe> Core<P> {
    pub(super) fn inbound_of(&self, rank: usize) -> Option<&Inbound<P>> {
        self.inbound.iter().find(|i| i.rank == rank)
    }

    /// Write one whole frame from `src` to `dst`, as the module docs
    /// say. Callers drop a failed write: the link is broken (its reader
    /// sees the same break and ends the link) or nobody will read it.
    pub(super) fn send(&self, registry: &Registry, src: usize, dst: usize, frame: &[u8]) -> io::Result<()> {
        let (write, link) = self
            .links
            .get(&(src, dst))
            .unwrap_or_else(|| panic!("no {} link for {src} -> {dst}", P::KIND));
        let _write = write.lock();
        let inbound = self.inbound_of(src);
        let (mut off, mut turn, mut heard) = (0, 0, false);
        while off < frame.len() {
            match self.pipe.try_write(link, dst, &frame[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => (off, turn) = (off + n, 0),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(mut readers) = inbound.and_then(|i| i.readers.try_lock()) {
                        self.drain_readers(registry, src, &mut readers);
                    }
                    if self.stop.load(Ordering::Acquire)
                        || self.bye[dst].load(Ordering::Acquire)
                        || registry.aborted()
                        || registry.is_failed(dst)
                    {
                        return Err(io::ErrorKind::ConnectionAborted.into());
                    }
                    if turn < WRITE_YIELD_TURNS {
                        #[cfg(test)]
                        WRITE_YIELDS.with(|n| n.set(n.get() + 1));
                        std::thread::yield_now();
                    } else {
                        self.pipe.sleep_writer(link, src, &mut heard, WRITE_SLICE);
                    }
                    turn += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deliver the frames that have arrived on the links toward `rank`,
    /// dropping the links that ended.
    fn drain_readers(&self, registry: &Registry, rank: usize, readers: &mut Vec<Incoming<P>>) {
        let mut frames = 0;
        readers.retain_mut(|link| {
            let read = self.read_link(registry, link, &mut frames);
            read.map_err(|why| self.end_link(rank, link.src, &link.reader, why)).is_ok()
        });
        if frames > 0 {
            self.pipe.delivered(rank, frames);
        }
    }

    /// Read what one link has ready — at most [`READS_PER_SWEEP`] reads —
    /// and deliver the frames that completes, counting them in `frames`.
    /// A read that comes back short has emptied the pipe, so it ends the
    /// drain without a read that would only find nothing. `Err` ends the
    /// link, as [`Pipe::try_read`] says.
    pub(super) fn read_link(&self, registry: &Registry, link: &mut Incoming<P>, frames: &mut u64) -> Result<(), Option<String>> {
        for _ in 0..READS_PER_SWEEP {
            let spare = link.inbox.spare();
            let room = spare.len();
            let n = self.pipe.try_read(&mut link.reader, link.src, spare)?;
            link.inbox.tail += n;
            let src = link.src;
            link.inbox.frames(|inner| {
                self.take(registry, src, inner)?;
                *frames += 1;
                Ok(())
            })
            .map_err(Some)?;
            if n < room {
                break;
            }
        }
        Ok(())
    }

    /// Apply one inner frame from `src`: data lands in its mailbox, and
    /// ledger news in the ledger without being published again (it came
    /// *from* the wire), except `src`'s own `BYE`, which marks it gone.
    pub(super) fn take(&self, registry: &Registry, src: usize, inner: &[u8]) -> Result<(), String> {
        match decode(inner)? {
            Frame::Data { comm, dst_local, env } => registry.mailbox(comm, dst_local).push(env),
            Frame::Ctrl(CtrlMsg::Bye(rank)) if rank == src => self.bye[src].store(true, Ordering::Release),
            Frame::Ctrl(msg) => registry.apply_remote_ctrl(msg),
        }
        Ok(())
    }

    /// The link `src -> rank` ended: its stream closed, or it carried
    /// bytes no frame can be made of. After `src`'s `BYE`, or while the
    /// transport stops, that is the end of the conversation. Otherwise
    /// the pipe hangs the link up as failed and `src` is reported down.
    fn end_link(&self, rank: usize, src: usize, reader: &P::Reader, why: Option<String>) {
        let quiet = self.bye[src].load(Ordering::Acquire) || self.stop.load(Ordering::Acquire);
        self.pipe.hang_up(reader, !quiet);
        if quiet {
            return;
        }
        if let Some(why) = why {
            eprintln!("beatnik-comm: {why} on the {} link from rank {src} to rank {rank}; ending the link", P::KIND);
        }
        if let Some(registry) = self.registry.get() {
            report_link_down(registry, src, rank);
        }
    }
}

impl<P: Pipe> Progress for Core<P> {
    fn epoch(&self, rank: usize) -> u64 {
        self.pipe.epoch(rank)
    }

    fn drain(&self, registry: &Registry, rank: usize) {
        if let Some(inbound) = self.inbound_of(rank) {
            self.drain_readers(registry, rank, &mut inbound.readers.lock());
        }
    }

    fn progress(&self, registry: &Registry, rank: usize, seen: u64, timeout: Duration) {
        assert!(self.inbound_of(rank).is_some(), "a waiting rank is hosted by its transport");
        self.drain(registry, rank);
        if self.pipe.epoch(rank) == seen {
            self.pipe.sleep(rank, seen, timeout);
            self.drain(registry, rank);
        }
    }

    fn ring_all(&self) {
        for inbound in &self.inbound {
            self.pipe.ring(inbound.rank);
        }
    }

    fn yields(&self) -> bool {
        P::YIELDS
    }
}

impl<P: Pipe> Transport for Wire<P> {
    fn kind(&self) -> TransportKind {
        P::KIND
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let _ = self.0.registry.set(Arc::downgrade(registry));
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire (and may carry types with
            // drop glue, which the wire would rightly refuse).
            registry.mailbox(route.comm, route.dst_local).push(env);
            return;
        }
        let frame = frame(data_len(&env), |out| {
            encode_data_into(out, route.comm, route.dst_local, &env)
        });
        let _ = self.0.send(registry, route.src_world, route.dst_world, &frame);
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only a process hosting one
        // rank broadcasts, over every link it writes.
        let core = &*self.0;
        let Some(registry) = core.registry.get().and_then(Weak::upgrade) else {
            return;
        };
        if core.inbound.len() != 1 {
            return;
        }
        let inner = encode_ctrl(ctrl);
        let frame = frame(inner.len(), |out| out.extend_from_slice(&inner));
        for &(src, dst) in core.links.keys() {
            let _ = core.send(&registry, src, dst, &frame);
        }
    }

    fn shutdown(&self) {
        let core = &*self.0;
        core.stop.store(true, Ordering::Release);
        core.ring_all();
        if let Some(registry) = core.registry.get().and_then(Weak::upgrade) {
            for inbound in &core.inbound {
                core.drain(&registry, inbound.rank);
            }
        }
    }

    fn progress(&self) -> Option<Arc<dyn Progress>> {
        Some(Arc::clone(&self.0) as Arc<dyn Progress>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frames_roundtrip() {
        let env = Envelope::new(3, 42, vec![1u64, 2, 3]).with_ctx(0x0002_0001_0000_0009);
        let buf = encode_data(7 | (1 << 63), 5, &env);
        match decode(&buf).unwrap() {
            Frame::Data {
                comm,
                dst_local,
                env,
            } => {
                assert_eq!(comm, 7 | (1 << 63));
                assert_eq!(dst_local, 5);
                assert_eq!(env.src, 3);
                assert_eq!(env.tag, 42);
                assert_eq!(env.ctx, 0x0002_0001_0000_0009);
                assert_eq!(env.into_data::<u64>(), vec![1, 2, 3]);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn encode_data_into_appends_behind_what_the_buffer_holds() {
        let env = Envelope::new(3, 42, vec![1u64, 2, 3]);
        let alone = encode_data(7, 5, &env);
        assert_eq!(alone.len(), data_len(&env));
        let mut out = vec![0xAA; 17];
        encode_data_into(&mut out, 7, 5, &env);
        assert_eq!(out[..17], [0xAA; 17]);
        assert_eq!(out[17..], alone[..]);
        let framed = frame(data_len(&env), |out| encode_data_into(out, 7, 5, &env));
        assert_eq!(framed[..4], (alone.len() as u32).to_le_bytes());
        assert_eq!(framed[4..], alone[..]);
    }

    #[test]
    fn ctrl_frames_roundtrip() {
        for msg in [CtrlMsg::Failed(2), CtrlMsg::Abort, CtrlMsg::Bye(7)] {
            match decode(&encode_ctrl(msg)).unwrap() {
                Frame::Ctrl(got) => assert_eq!(got, msg),
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn the_retired_ctrl_code_1_is_unknown() {
        let mut frame = encode_ctrl(CtrlMsg::Abort);
        frame[1] = 1;
        assert_eq!(decode(&frame).unwrap_err(), "unknown ctrl code 1");
    }

    /// The shmem handoff token's kind is gone: a frame of it is bytes no
    /// frame can be made of, on every pipe.
    #[test]
    fn the_retired_handoff_kind_is_unknown() {
        let mut token = vec![0x02];
        token.extend_from_slice(&[0; 20]);
        assert_eq!(decode(&token).unwrap_err(), "unknown frame kind 0x02");
    }

    #[test]
    fn truncated_and_inconsistent_frames_error() {
        let env = Envelope::new(0, 0, vec![1u32]);
        let buf = encode_data(0, 0, &env);
        assert!(decode(&buf[..buf.len() - 1]).is_err());
        assert!(decode(&[0x77]).is_err());
        let mut bad = buf.clone();
        // Corrupt the count field (offset 1 + 8 + 4 + 4 + 8 + 8 = 33).
        bad[33] = 99;
        assert!(decode(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot cross a wire transport")]
    fn droppy_payloads_refuse_to_encode() {
        let env = Envelope::new(0, 0, vec![String::from("nope")]);
        let _ = encode_data(0, 0, &env);
    }
}

/// The tests every pipe runs, called from each pipe's own test module
/// with a loopback wire of its kind.
#[cfg(test)]
pub(super) mod pipe_tests {
    use super::*;
    use crate::registry::WORLD_COMM_ID;
    use std::time::Instant;

    /// `wire` installed in a registry and attached to it, as a world
    /// runner builds it.
    pub(in crate::transport) fn attached<P: Pipe>(wire: Wire<P>) -> (Arc<Wire<P>>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let wire = Arc::new(wire);
        registry.install_transport(Arc::clone(&wire) as Arc<dyn Transport>);
        wire.attach(&registry);
        (wire, registry)
    }

    /// A data frame of `len` `u64`s of value `value`, from rank `src`
    /// to rank `dst` of the world communicator.
    pub(in crate::transport) fn data_frame(src: usize, dst: usize, tag: u64, value: u64, len: usize) -> Vec<u8> {
        let env = Envelope::new(src, tag, vec![value; len]);
        frame(data_len(&env), |out| encode_data_into(out, WORLD_COMM_ID, dst, &env))
    }

    /// A writer blocked on a full link gives the frame up once the world
    /// aborts, the reader is marked failed or says `BYE`, or the
    /// transport stops; each of these wakes it at once. `wire` builds a
    /// 2-rank loopback wire whose link `0 -> 1` takes `stall` whole
    /// `fits` times and then blocks on it.
    pub(in crate::transport) fn a_writer_on_a_full_link_gives_up_on_abort_failure_bye_and_stop<P: Pipe>(
        wire: impl Fn() -> Wire<P>,
        stall: &[u8],
        fits: usize,
    ) {
        for exit in ["abort", "failed", "bye", "stop"] {
            let (t, registry) = attached(wire());
            for _ in 0..fits {
                t.0.send(&registry, 0, 1, stall).expect("the link takes the frame");
            }
            std::thread::scope(|s| {
                let writer = s.spawn(|| t.0.send(&registry, 0, 1, stall));
                std::thread::sleep(Duration::from_millis(50));
                assert!(!writer.is_finished(), "{exit}: the frame fit the link");
                let started = Instant::now();
                match exit {
                    "abort" => registry.signal_abort(),
                    "failed" => registry.mark_failed(1),
                    "bye" => {
                        let bye = encode_ctrl(CtrlMsg::Bye(1));
                        let bye = frame(bye.len(), |out| out.extend_from_slice(&bye));
                        t.0.send(&registry, 1, 0, &bye).expect("the goodbye goes out");
                    }
                    _ => t.shutdown(),
                }
                let wrote = writer.join().unwrap();
                let took = started.elapsed();
                assert!(took < WRITE_SLICE / 2, "{exit}: took {took:?}");
                // A stopping transport's last drain may make the room the
                // writer waits for; every other exit gives the frame up.
                if exit != "stop" {
                    assert_eq!(wrote.map_err(|e| e.kind()), Err(io::ErrorKind::ConnectionAborted), "{exit}");
                }
            });
            t.shutdown();
        }
    }

    /// Two writers, each on a link toward the other that fills long
    /// before either receives: each drains its own inbound while it
    /// waits for room, so both finish, and every frame arrives in order.
    pub(in crate::transport) fn two_writers_on_full_links_toward_each_other_both_finish<P: Pipe>(
        wire: Wire<P>,
        frames: u64,
        len: usize,
    ) {
        let (t, registry) = attached(wire);
        std::thread::scope(|s| {
            for (src, dst) in [(0, 1), (1, 0)] {
                let (t, registry) = (&t, &registry);
                s.spawn(move || {
                    for i in 0..frames {
                        let frame = data_frame(src, dst, 3, i, len);
                        t.0.send(registry, src, dst, &frame).expect("the frame goes out");
                    }
                    // Then receive, as a rank would: the peer may still be
                    // writing.
                    let mb = registry.mailbox(WORLD_COMM_ID, src);
                    for i in 0..frames {
                        let env = loop {
                            let seen = t.0.epoch(src);
                            let since = mb.interrupt_seq();
                            let env = mb.recv_matching_timeout(dst, 3, since, Duration::ZERO);
                            if let Some(env) = env {
                                break env;
                            }
                            t.0.progress(registry, src, seen, Duration::from_secs(10));
                        };
                        assert_eq!(env.into_data::<u64>(), vec![i; len]);
                    }
                });
            }
        });
        t.shutdown();
    }
}
