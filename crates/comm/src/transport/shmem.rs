//! Shared-memory transport: memory-mapped SPSC byte rings, one per
//! ordered rank pair.
//!
//! Each ring is a plain file (`ring-<src>-<dst>`) under a shared
//! directory, mapped with `MAP_SHARED` so any process that opens it
//! sees the same bytes. The first two cachelines hold the consumer
//! (`head`) and producer (`tail`) cursors as monotonically increasing
//! byte counts; the rest is payload. Records are `u32` length-prefixed
//! wire frames (see [`super::wire`]) written with wraparound — the
//! producer publishes `tail` once per whole record, so a consumer that
//! observes `tail - head >= 4` always has a complete record to read.
//!
//! A ring is read by the rank it is addressed to, on its own thread
//! ([`Progress`]). A waiting rank drains its rings in ring order and
//! sleeps on its **doorbell**: a futex word in the shared `bells` file
//! that every writer to the rank, and every ledger interrupt, rings.
//! The word counts rings, so it is the rank's [`Progress::epoch`]. A
//! writer on a full ring drains its own rings, then sleeps on its own
//! doorbell, which a consumer that frees space rings; it gives the
//! frame up once the world aborts, the peer is marked failed or said
//! `BYE`, or the transport stops. Bytes a reader cannot take — cursors
//! or a length outside what was published, a frame [`wire::decode`]
//! refuses, a `HANDOFF` token with nothing stashed under it — end that
//! ring's link as a torn TCP stream does ([`super::report_link_down`]);
//! nothing panics.
//!
//! * **loopback** — all ranks are threads of this process (the backend
//!   test matrix runs here). Wire-safe envelopes of
//!   [`HANDOFF_MIN_BYTES`] or more skip serialization: the envelope
//!   waits in a process-local **handoff slab** and a ~21-byte `HANDOFF`
//!   token rides the ring, in FIFO order with serialized frames, so the
//!   payload moves by pointer (`bytes_copied_per_op == 0`) and may be
//!   larger than the ring.
//! * **per-process** ([`ShmemTransport::for_process`]) — each rank is
//!   its own process ([`crate::proc`]); failure-ledger news travels as
//!   CTRL frames through the same rings.
//!
//! No external crates: `mmap`, `munmap` and `futex` are declared
//! against the C library that `std` already links.

use super::{wire, CtrlMsg, Progress, Route, Transport, TransportKind};
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Ring header size: one cacheline for `head`, one for `tail`.
const HEADER_BYTES: usize = 128;

/// Smallest ring we will build; below this the header dominates.
const MIN_RING_BYTES: usize = 4096;

/// Smallest payload that rides the handoff slab when the destination
/// is in this process; below it a memcpy through the ring is cheaper
/// than the slab's lock and token round trip.
const HANDOFF_MIN_BYTES: usize = 8192;

/// One rank's doorbell in the `bells` file: a cacheline holding the
/// futex word and the count of threads asleep on it.
const BELL_BYTES: usize = 64;

/// Yields a writer takes on a full ring before it sleeps (the rule of
/// [`crate::communicator::YIELD_TURNS`]).
const WRITE_YIELD_TURNS: u32 = crate::communicator::YIELD_TURNS;

/// Longest a blocked writer sleeps before it looks again.
const WRITE_SLICE: Duration = Duration::from_millis(100);

#[cfg(unix)]
mod sys {
    use std::os::fd::RawFd;

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Map `len` bytes of `fd` shared read/write.
    pub fn map_shared(fd: RawFd, len: usize) -> std::io::Result<*mut u8> {
        // SAFETY: a null `addr` lets the kernel choose where the mapping
        // goes, so no existing memory of this process is replaced; the
        // call only reads its arguments, and failure comes back as
        // `MAP_FAILED`, checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            )
        };
        if ptr as isize == -1 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ptr as *mut u8)
        }
    }

    /// Unmap a region mapped by [`map_shared`].
    pub fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: the caller passes a `(ptr, len)` that `map_shared`
        // returned and that nothing will touch again (`Mapping::drop`).
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

/// Sleep and wake on a word of a shared file mapping: without
/// `FUTEX_PRIVATE_FLAG` the futex is keyed by the file, so it works
/// across processes.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod futex {
    use std::ffi::{c_int, c_long};
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: c_long = 98;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }

    /// Sleep while `word` holds `expect`, until a [`wake`] or `timeout`.
    pub fn wait(word: &AtomicU32, expect: u32, timeout: Duration) {
        // `struct timespec` on 64-bit Linux.
        let ts: [i64; 2] = [timeout.as_secs() as i64, timeout.subsec_nanos() as i64];
        // SAFETY: `word` is a live, aligned 32-bit atomic and `ts` a
        // relative timeout, both valid for the whole call, which only
        // reads them (`FUTEX_WAIT`, 0). The kernel compares the word with
        // `expect` atomically, so a wake before the sleep is not lost.
        unsafe {
            syscall(SYS_FUTEX, word.as_ptr(), 0 as c_int, expect, ts.as_ptr());
        }
    }

    /// Wake every thread, of any process, asleep in [`wait`] on `word`.
    pub fn wake(word: &AtomicU32) {
        // SAFETY: `FUTEX_WAKE` (1) uses the word's address only as a key;
        // it reads and writes no memory.
        unsafe {
            syscall(SYS_FUTEX, word.as_ptr(), 1 as c_int, c_int::MAX);
        }
    }
}

/// Without futexes a sleeper naps a millisecond at a time.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod futex {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    pub fn wait(word: &AtomicU32, expect: u32, timeout: Duration) {
        if word.load(Ordering::SeqCst) == expect {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
        }
    }

    pub fn wake(_: &AtomicU32) {}
}

/// A file mapped shared read/write. From [`Mapping::open`] until drop,
/// `ptr` is the start of a live, page-aligned shared mapping of `len`
/// bytes; its words are only ever touched as atomics, and a ring's data
/// bytes only in the ring protocol (see [`Ring`]).
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr` owns nothing thread-local: it is a shared mapping that
// lives until drop, whichever thread drops it.
unsafe impl Send for Mapping {}
// SAFETY: shared use goes through `&self` methods that touch words only
// as atomics, and `Ring` confines data bytes to the ring protocol.
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

impl Mapping {
    /// Map `len` bytes of the file at `path`, creating it zero-filled if
    /// `create`.
    #[cfg(unix)]
    fn open(path: &Path, len: usize, create: bool) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(path)?;
        file.set_len(len as u64)?;
        let ptr = sys::map_shared(file.as_raw_fd(), len)?;
        Ok(Mapping { ptr, len })
    }

    #[cfg(not(unix))]
    fn open(_path: &Path, _len: usize, _create: bool) -> io::Result<Mapping> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the shmem transport requires a unix platform (mmap)",
        ))
    }

    /// The `N`-byte atomic word at byte offset `at`.
    fn word<A, const N: usize>(&self, at: usize) -> &A {
        assert!(at.is_multiple_of(N) && at + N <= self.len, "word {at} outside the mapping");
        // SAFETY: the assert keeps the word inside the live mapping and
        // aligned (the mapping is page-aligned); callers name an atomic
        // type of `N` bytes, it is only used as one, and the reference
        // cannot outlive `self`.
        unsafe { &*(self.ptr.add(at) as *const A) }
    }
}

/// One memory-mapped SPSC ring, `HEADER_BYTES + capacity >=
/// MIN_RING_BYTES` bytes long. Producers are serialized by `write_lock`,
/// the consumer by its rank's [`Inbound`] lock. Data bytes are touched
/// in the ring protocol: the producer writes only the free span behind
/// `tail` and publishes it with a release store of `tail`; the consumer
/// reads only the published span behind `head`, after an acquire load
/// of `tail`, and frees it with a release store of `head`. No byte is
/// read and written at once.
struct Ring {
    map: Mapping,
    capacity: u64,
    write_lock: Mutex<()>,
}

impl Ring {
    fn open(path: &Path, ring_bytes: usize, create: bool) -> io::Result<Ring> {
        assert!(
            ring_bytes >= MIN_RING_BYTES,
            "shm ring of {ring_bytes} bytes is below the {MIN_RING_BYTES}-byte minimum"
        );
        // Freshly created files are zero-filled, so head == tail == 0.
        Ok(Ring {
            map: Mapping::open(path, ring_bytes, create)?,
            capacity: (ring_bytes - HEADER_BYTES) as u64,
            write_lock: Mutex::new(()),
        })
    }

    fn head(&self) -> &AtomicU64 {
        self.map.word::<AtomicU64, 8>(0)
    }

    fn tail(&self) -> &AtomicU64 {
        self.map.word::<AtomicU64, 8>(64)
    }

    fn data(&self) -> *mut u8 {
        // SAFETY: `HEADER_BYTES < len`, so the offset stays inside the
        // mapping.
        unsafe { self.map.ptr.add(HEADER_BYTES) }
    }

    /// Copy `src` into the ring at logical offset `at`, wrapping.
    /// Caller must own `[at, at + src.len())` (producer discipline).
    fn write_at(&self, at: u64, src: &[u8]) {
        assert!(src.len() as u64 <= self.capacity, "a write larger than the ring");
        let pos = (at % self.capacity) as usize;
        let first = src.len().min(self.capacity as usize - pos);
        // SAFETY: `pos + first <= capacity` and `src.len() - first <=
        // capacity`, so both copies land inside the data region; `src`
        // is a slice of this process, which the mapping cannot overlap;
        // the ring protocol gives these bytes to this producer alone.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data().add(pos), first);
            std::ptr::copy_nonoverlapping(
                src.as_ptr().add(first),
                self.data(),
                src.len() - first,
            );
        }
    }

    /// Copy `dst.len()` bytes out of the ring at logical offset `at`.
    fn read_at(&self, at: u64, dst: &mut [u8]) {
        assert!(dst.len() as u64 <= self.capacity, "a read larger than the ring");
        let pos = (at % self.capacity) as usize;
        let first = dst.len().min(self.capacity as usize - pos);
        // SAFETY: as in `write_at`, both copies stay inside the data
        // region and `dst` cannot overlap it; the ring protocol gives the
        // published bytes to this consumer alone.
        unsafe {
            std::ptr::copy_nonoverlapping(self.data().add(pos), dst.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(
                self.data(),
                dst.as_mut_ptr().add(first),
                dst.len() - first,
            );
        }
    }

    /// Whether a record of `need` bytes fits behind `tail`. A head the
    /// peer moved past the tail reads as a full ring.
    fn has_room(&self, tail: u64, need: u64) -> bool {
        tail.wrapping_sub(self.head().load(Ordering::Acquire)) <= self.capacity - need
    }

    /// Append one record at `tail` (room checked, write lock held). One
    /// release store per record: a consumer that sees the new tail sees
    /// the whole frame.
    fn publish(&self, tail: u64, frame: &[u8]) {
        self.write_at(tail, &(frame.len() as u32).to_le_bytes());
        self.write_at(tail + 4, frame);
        self.tail().store(tail + 4 + frame.len() as u64, Ordering::Release);
    }

    /// Take the next frame if one is complete. Consumer side only. The
    /// cursors and the length prefix may come from another process: a
    /// record must lie inside what was published, and that inside the
    /// ring, or the bytes are refused.
    fn pop_frame(&self) -> Result<Option<Vec<u8>>, String> {
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if tail == head {
            return Ok(None);
        }
        let published = tail.wrapping_sub(head);
        if !(4..=self.capacity).contains(&published) {
            return Err(format!("{published} bytes published"));
        }
        let mut len_bytes = [0u8; 4];
        self.read_at(head, &mut len_bytes);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if 4 + len as u64 > published {
            return Err(format!("a {len}-byte frame in {published} published bytes"));
        }
        let mut frame = vec![0u8; len];
        self.read_at(head + 4, &mut frame);
        self.head().store(head + 4 + len as u64, Ordering::Release);
        Ok(Some(frame))
    }
}

/// Every rank's doorbell, a cacheline each in the shared `bells` file:
/// a futex word that moves on each ring, and the count of its sleepers,
/// so a ringer makes the wake call only when someone sleeps.
struct Bells(Mapping);

impl Bells {
    fn word(&self, rank: usize) -> &AtomicU32 {
        self.0.word::<AtomicU32, 4>(rank * BELL_BYTES)
    }

    fn sleepers(&self, rank: usize) -> &AtomicU32 {
        self.0.word::<AtomicU32, 4>(rank * BELL_BYTES + 4)
    }

    fn ring(&self, rank: usize) {
        self.word(rank).fetch_add(1, Ordering::SeqCst);
        if self.sleepers(rank).load(Ordering::SeqCst) > 0 {
            futex::wake(self.word(rank));
        }
    }

    /// Sleep on `rank`'s doorbell for at most `timeout` while its word
    /// holds what `seen` returns; `seen` runs once this thread counts as
    /// a sleeper, so a ringer that found no sleeper rang before it ran.
    fn sleep(&self, rank: usize, timeout: Duration, seen: impl FnOnce() -> Option<u32>) {
        let sleepers = self.sleepers(rank);
        sleepers.fetch_add(1, Ordering::SeqCst);
        // Pairs with the consumer's fence in `Shared::drain_inbound`: the
        // count is visible before `seen` reads the word and the ring.
        fence(Ordering::SeqCst);
        if let Some(seen) = seen() {
            futex::wait(self.word(rank), seen, timeout);
        }
        sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn ring_path(dir: &Path, src: usize, dst: usize) -> PathBuf {
    dir.join(format!("ring-{src}-{dst}"))
}

/// A fresh, process-unique directory under the temp dir.
fn fresh_dir(prefix: &str) -> io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The rings toward one rank hosted here, each with its writer, in
/// sweep order. Locked by whoever drains them, for the drain only; a
/// ring whose bytes ended its link leaves the list.
struct Inbound {
    rank: usize,
    rings: Mutex<Vec<(usize, Arc<Ring>)>>,
}

/// The transport's state, shared with the ranks' [`Progress`] handles.
struct Shared {
    /// `(src_world, dst_world) -> ring` for every ring a local rank
    /// writes.
    rings: HashMap<(usize, usize), Arc<Ring>>,
    /// Every world rank hosted here (all of them in loopback).
    inbound: Vec<Inbound>,
    bells: Bells,
    /// The world ranks that said `BYE`: a writer gives up on them.
    bye: Vec<AtomicBool>,
    stop: AtomicBool,
    /// Set by `attach`; weak, because the registry holds the transport.
    registry: OnceLock<Weak<Registry>>,
    /// Envelopes travelling zero-copy, by token.
    handoff: Mutex<HashMap<u64, Envelope>>,
    handoff_seq: AtomicU64,
}

/// The shared-memory transport. See the module docs for the two modes.
pub struct ShmemTransport {
    shared: Arc<Shared>,
    dir: PathBuf,
    /// Loopback owns the directory and deletes it on shutdown.
    owns_dir: bool,
}

impl ShmemTransport {
    /// Map the files of `num_ranks` ranks under `dir` for the `local`
    /// ones: every ring a local rank writes or reads, and the doorbells.
    fn open(
        dir: PathBuf,
        local: &[usize],
        num_ranks: usize,
        ring_bytes: usize,
        owns_dir: bool,
    ) -> io::Result<ShmemTransport> {
        let mut rings = HashMap::new();
        for src in 0..num_ranks {
            for dst in (0..num_ranks).filter(|&d| d != src) {
                if local.contains(&src) || local.contains(&dst) {
                    let ring = Ring::open(&ring_path(&dir, src, dst), ring_bytes, owns_dir)?;
                    rings.insert((src, dst), Arc::new(ring));
                }
            }
        }
        let inbound = local
            .iter()
            .map(|&me| Inbound {
                rank: me,
                rings: Mutex::new(
                    (0..num_ranks)
                        .filter(|&src| src != me)
                        .map(|src| (src, Arc::clone(&rings[&(src, me)])))
                        .collect(),
                ),
            })
            .collect();
        rings.retain(|(src, _), _| local.contains(src));
        let bells = Mapping::open(&dir.join("bells"), num_ranks.max(1) * BELL_BYTES, owns_dir)?;
        let shared = Shared {
            rings,
            inbound,
            bells: Bells(bells),
            bye: (0..num_ranks).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
            registry: OnceLock::new(),
            handoff: Mutex::new(HashMap::new()),
            handoff_seq: AtomicU64::new(0),
        };
        Ok(ShmemTransport {
            shared: Arc::new(shared),
            dir,
            owns_dir,
        })
    }

    /// Build a loopback transport: every rank is a thread of this
    /// process and rings live in a fresh private directory.
    pub fn loopback(num_ranks: usize, ring_bytes: usize) -> io::Result<ShmemTransport> {
        let local: Vec<usize> = (0..num_ranks).collect();
        ShmemTransport::open(fresh_dir("beatnik-shm")?, &local, num_ranks, ring_bytes, true)
    }

    /// Join an existing ring directory as world rank `my_rank` (one
    /// process per rank; the [`crate::proc`] parent creates the files
    /// with [`ShmemTransport::create_world_dir`]).
    pub fn for_process(
        dir: &Path,
        my_rank: usize,
        num_ranks: usize,
        ring_bytes: usize,
    ) -> io::Result<ShmemTransport> {
        ShmemTransport::open(dir.to_path_buf(), &[my_rank], num_ranks, ring_bytes, false)
    }

    /// The ring directory (the proc launcher passes it to children).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Create a fresh world directory with one zero-initialized ring
    /// file per ordered rank pair and the doorbells file. The
    /// [`crate::proc`] parent calls this before spawning children, then
    /// joins the world itself via [`ShmemTransport::for_process`].
    pub fn create_world_dir(num_ranks: usize, ring_bytes: usize) -> io::Result<PathBuf> {
        let dir = fresh_dir("beatnik-proc")?;
        for src in 0..num_ranks {
            for dst in (0..num_ranks).filter(|&d| d != src) {
                std::fs::File::create(ring_path(&dir, src, dst))?.set_len(ring_bytes as u64)?;
            }
        }
        std::fs::File::create(dir.join("bells"))?.set_len((num_ranks.max(1) * BELL_BYTES) as u64)?;
        Ok(dir)
    }
}

impl Shared {
    fn inbound_of(&self, rank: usize) -> Option<&Inbound> {
        self.inbound.iter().find(|i| i.rank == rank)
    }

    /// Deliver every complete frame on the rings toward `inbound`'s
    /// rank. A blocked writer passes `wait = false` and skips the drain
    /// while another thread holds the rings. Rings the writer of a ring
    /// this drain freed space in, if it sleeps, and the rank's own
    /// doorbell once frames were delivered, which moves its epoch.
    fn drain_inbound(&self, inbound: &Inbound, registry: &Registry, wait: bool) {
        let rings = if wait { Some(inbound.rings.lock()) } else { inbound.rings.try_lock() };
        let Some(mut rings) = rings else {
            return;
        };
        let mut delivered = false;
        rings.retain(|(src, ring)| {
            let (popped, ended) = self.drain_ring(*src, ring, registry);
            if popped {
                delivered = true;
                // Orders the head store before the read of the writer's
                // sleeper count; pairs with the fence in `Bells::sleep`.
                fence(Ordering::SeqCst);
                if self.bells.sleepers(*src).load(Ordering::SeqCst) > 0 {
                    self.bells.ring(*src);
                }
            }
            if let Some(why) = &ended {
                self.end_link(*src, inbound.rank, why);
            }
            ended.is_none()
        });
        drop(rings);
        if delivered {
            self.bells.ring(inbound.rank);
        }
    }

    /// Apply every complete frame on `src`'s ring. Returns whether one
    /// was popped, and why the ring's bytes end its link, if they do.
    /// Handoff tokens are claimed here, where the sender's slab is in
    /// reach, so the stashed envelope keeps its place in ring order.
    fn drain_ring(&self, src: usize, ring: &Ring, registry: &Registry) -> (bool, Option<String>) {
        let mut popped = false;
        let ended = loop {
            let frame = match ring.pop_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break None,
                Err(why) => break Some(why),
            };
            popped = true;
            match wire::decode(&frame) {
                Ok(wire::Frame::Handoff {
                    comm,
                    dst_local,
                    token,
                }) => match self.handoff.lock().remove(&token) {
                    Some(env) => registry.mailbox(comm, dst_local).push(env),
                    None => break Some(format!("handoff token {token} with no stashed envelope")),
                },
                Ok(wire::Frame::Ctrl(CtrlMsg::Bye(rank))) if rank == src => {
                    self.bye[src].store(true, Ordering::Release)
                }
                Ok(f) => wire::apply(f, registry),
                Err(why) => break Some(why),
            }
        };
        (popped, ended)
    }

    /// `src`'s ring toward `rank` carried bytes no frame can be made of:
    /// while the transport runs, a failed writer.
    fn end_link(&self, src: usize, rank: usize, why: &str) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        eprintln!(
            "beatnik-comm: corrupt shm ring from rank {src} to rank {rank} ({why}); ending the link"
        );
        if let Some(registry) = self.registry.get() {
            super::report_link_down(registry, src, rank);
        }
    }

    /// Append `frame` to the ring `src -> dst` and ring `dst`'s doorbell;
    /// on a full ring, wait as the module docs say.
    fn push(&self, registry: &Registry, src: usize, dst: usize, frame: &[u8]) {
        let ring = &self.rings[&(src, dst)];
        let need = 4 + frame.len() as u64;
        assert!(
            need <= ring.capacity,
            "a {} byte frame exceeds the {} byte shm ring; raise {}",
            frame.len(),
            ring.capacity,
            crate::config::SHM_RING_BYTES_ENV,
        );
        let guard = ring.write_lock.lock();
        let tail = ring.tail().load(Ordering::Relaxed);
        let mut turns = 0;
        while !ring.has_room(tail, need) {
            if let Some(inbound) = self.inbound_of(src) {
                self.drain_inbound(inbound, registry, false);
            }
            if self.stop.load(Ordering::Acquire)
                || self.bye[dst].load(Ordering::Acquire)
                || registry.aborted()
                || registry.is_failed(dst)
            {
                return;
            }
            if turns < WRITE_YIELD_TURNS {
                turns += 1;
                std::thread::yield_now();
                continue;
            }
            self.bells.sleep(src, WRITE_SLICE, || {
                let seen = self.bells.word(src).load(Ordering::SeqCst);
                (!ring.has_room(tail, need)).then_some(seen)
            });
        }
        ring.publish(tail, frame);
        drop(guard);
        self.bells.ring(dst);
    }
}

impl Progress for Shared {
    fn epoch(&self, rank: usize) -> u64 {
        self.bells.word(rank).load(Ordering::SeqCst) as u64
    }

    fn drain(&self, registry: &Registry, rank: usize) {
        if let Some(inbound) = self.inbound_of(rank) {
            self.drain_inbound(inbound, registry, true);
        }
    }

    fn progress(&self, registry: &Registry, rank: usize, seen: u64, timeout: Duration) {
        let inbound = self
            .inbound_of(rank)
            .expect("a waiting rank is hosted by its transport");
        self.drain_inbound(inbound, registry, true);
        if self.epoch(rank) == seen {
            self.bells.sleep(rank, timeout, || Some(seen as u32));
            self.drain_inbound(inbound, registry, true);
        }
    }

    fn ring_all(&self) {
        for inbound in &self.inbound {
            self.bells.ring(inbound.rank);
        }
    }
}

impl Transport for ShmemTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shmem
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let _ = self.shared.registry.set(Arc::downgrade(registry));
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire (and may carry types with
            // drop glue, which the wire would rightly refuse).
            registry.mailbox(route.comm, route.dst_local).push(env);
            return;
        }
        let shared = &self.shared;
        // Zero-copy handoff to a destination in this process; droppy
        // payloads (no wire view) keep the loud serialization failure
        // rather than silently working only above the threshold.
        let frame = if env.bytes >= HANDOFF_MIN_BYTES
            && env.wire_view().is_some()
            && shared.inbound_of(route.dst_world).is_some()
        {
            let token = shared.handoff_seq.fetch_add(1, Ordering::Relaxed);
            shared.handoff.lock().insert(token, env);
            wire::encode_handoff(route.comm, route.dst_local, token)
        } else {
            wire::encode_data(route.comm, route.dst_local, &env)
        };
        shared.push(registry, route.src_world, route.dst_world, &frame);
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only per-process mode needs
        // to broadcast (its only local rank writes every ring).
        let shared = &self.shared;
        let Some(registry) = shared.registry.get().and_then(Weak::upgrade) else {
            return;
        };
        if shared.inbound.len() == 1 {
            let frame = wire::encode_ctrl(ctrl);
            for &(src, dst) in shared.rings.keys() {
                shared.push(&registry, src, dst, &frame);
            }
        }
    }

    fn shutdown(&self) {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::Release);
        shared.ring_all();
        if let Some(registry) = shared.registry.get().and_then(Weak::upgrade) {
            for inbound in &shared.inbound {
                shared.drain_inbound(inbound, &registry, true);
            }
        }
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn progress(&self) -> Option<Arc<dyn Progress>> {
        Some(Arc::clone(&self.shared) as Arc<dyn Progress>)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::registry::WORLD_COMM_ID;
    use beatnik_prng::Rng;
    use std::time::Instant;

    fn test_ring(bytes: usize) -> (Ring, PathBuf) {
        let dir = fresh_dir("beatnik-ring-test").unwrap();
        let ring = Ring::open(&dir.join("ring"), bytes, true).unwrap();
        (ring, dir)
    }

    /// Append a record, waiting (yielding) for room.
    fn push_frame(ring: &Ring, frame: &[u8]) {
        let tail = ring.tail().load(Ordering::Relaxed);
        while !ring.has_room(tail, 4 + frame.len() as u64) {
            std::thread::yield_now();
        }
        ring.publish(tail, frame);
    }

    fn route(src: usize, dst: usize) -> Route {
        Route {
            comm: WORLD_COMM_ID,
            dst_local: dst,
            src_world: src,
            dst_world: dst,
        }
    }

    /// A loopback transport attached to a registry that has it
    /// installed, as a world runner builds it.
    fn attached(num_ranks: usize, ring_bytes: usize) -> (Arc<ShmemTransport>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let t = Arc::new(ShmemTransport::loopback(num_ranks, ring_bytes).unwrap());
        registry.install_transport(Arc::clone(&t) as Arc<dyn Transport>);
        t.attach(&registry);
        (t, registry)
    }

    /// Drain `rank`'s rings, then take the next envelope of `(src, tag)`.
    fn recv(t: &ShmemTransport, registry: &Registry, src: usize, rank: usize, tag: u64)
        -> Envelope {
        Progress::drain(&*t.shared, registry, rank);
        let mb = registry.mailbox(WORLD_COMM_ID, rank);
        mb.recv_matching_timeout(src, tag, mb.interrupt_seq(), Duration::ZERO)
            .unwrap_or_else(|| panic!("rank {rank}: nothing from {src} on tag {tag}"))
    }

    #[test]
    fn ring_roundtrips_frames_in_order() {
        let (ring, path) = test_ring(4096);
        assert!(ring.pop_frame().unwrap().is_none());
        push_frame(&ring, b"alpha");
        push_frame(&ring, b"bravo-longer");
        assert_eq!(ring.pop_frame().unwrap().unwrap(), b"alpha");
        assert_eq!(ring.pop_frame().unwrap().unwrap(), b"bravo-longer");
        assert!(ring.pop_frame().unwrap().is_none());
        drop(ring);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn ring_wraps_and_survives_pressure() {
        let (ring, path) = test_ring(4096);
        // Capacity is 4096 - 128; frames of 1000 bytes force wraps and
        // back-pressure interleaving across many laps.
        let producer_ring = Arc::new(ring);
        let consumer_ring = Arc::clone(&producer_ring);
        let producer = std::thread::spawn(move || {
            for i in 0..500u32 {
                push_frame(&producer_ring, &vec![(i % 251) as u8; 1000]);
            }
        });
        let mut seen = 0u32;
        while seen < 500 {
            if let Some(frame) = consumer_ring.pop_frame().unwrap() {
                assert_eq!(frame.len(), 1000);
                assert!(frame.iter().all(|&b| b == (seen % 251) as u8));
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        drop(consumer_ring);
        let _ = std::fs::remove_dir_all(path);
    }

    /// A length prefix or cursor that points past what was published —
    /// a peer process that broke the protocol — is refused instead of
    /// read outside the record, let alone the mapping.
    #[test]
    fn a_record_longer_than_what_was_published_is_refused() {
        let (ring, path) = test_ring(4096);
        ring.write_at(0, &(1u32 << 20).to_le_bytes());
        ring.tail().store(8, Ordering::Release);
        let why = ring.pop_frame().expect_err("a 1 MiB record in 8 bytes");
        assert!(why.contains("a 1048576-byte frame in 8 published bytes"), "{why}");
        // A tail behind the head (a wrapped subtraction) is refused too.
        ring.head().store(16, Ordering::Release);
        assert!(ring.pop_frame().is_err(), "a tail behind the head");
        drop(ring);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_frames_panic_with_the_env_hint() {
        let (t, registry) = attached(2, 4096);
        t.shared.push(&registry, 0, 1, &vec![0u8; 8192]);
    }

    #[test]
    fn handoff_moves_large_envelopes_without_serialization_in_ring_order() {
        // The 8-byte messages serialize, the 8 KiB one rides the slab:
        // it exceeds the 4 KiB ring, so it can only arrive via handoff —
        // reaching the mailbox at all proves no serialized frame
        // carried it.
        let (t, registry) = attached(2, 4096);
        let big: Vec<u64> = (0..1024).collect();
        t.deliver(&registry, route(0, 1), Envelope::new(0, 1, vec![7u64]));
        t.deliver(&registry, route(0, 1), Envelope::new(0, 1, big.clone()));
        t.deliver(&registry, route(0, 1), Envelope::new(0, 1, vec![9u64]));
        // One (src, tag) stream absorbs strictly in arrival order: the
        // handoff token must not have overtaken frame 1 nor been
        // overtaken by frame 3.
        assert_eq!(recv(&t, &registry, 0, 1, 1).into_data::<u64>(), [7]);
        assert_eq!(recv(&t, &registry, 0, 1, 1).into_data::<u64>(), big);
        assert_eq!(recv(&t, &registry, 0, 1, 1).into_data::<u64>(), [9]);
        assert!(t.shared.handoff.lock().is_empty(), "slab must drain");
        t.shutdown();
    }

    /// Every rank of a loopback world is local, so an envelope at the
    /// handoff threshold reaches any of them as the sender's own
    /// allocation: the received `Vec` has the address the sent one had.
    #[test]
    fn handoff_capability_tracks_local_ranks() {
        let (t, registry) = attached(3, 4096);
        for dst in [0, 2] {
            let sent = vec![dst as u8; HANDOFF_MIN_BYTES];
            let sent_at = sent.as_ptr();
            t.deliver(&registry, route(1, dst), Envelope::new(1, 4, sent));
            let got = recv(&t, &registry, 1, dst, 4).into_data::<u8>();
            assert_eq!(got.as_ptr(), sent_at, "rank {dst} got a copy");
            assert_eq!(got, vec![dst as u8; HANDOFF_MIN_BYTES]);
        }
        t.shutdown();
    }

    /// A rank asleep in `progress` sleeps its timeout when nothing
    /// comes, and wakes at once for a write toward it or a ring of its
    /// doorbell; a write that lands between its epoch read and its
    /// sleep is not slept through.
    #[test]
    fn a_waiting_rank_wakes_for_a_write_toward_it_and_for_a_ring() {
        let (t, registry) = attached(2, 4096);
        let p = t.progress().unwrap();
        let started = Instant::now();
        p.progress(&registry, 1, p.epoch(1), Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(25), "woke with nothing to read");

        let seen = p.epoch(1);
        t.deliver(&registry, route(0, 1), Envelope::new(0, 7, vec![5u64]));
        let started = Instant::now();
        p.progress(&registry, 1, seen, Duration::from_secs(10));
        assert!(started.elapsed() < Duration::from_secs(5), "slept past a write");
        let mb = registry.mailbox(WORLD_COMM_ID, 1);
        let env = mb.recv_matching_timeout(0, 7, mb.interrupt_seq(), Duration::ZERO);
        assert_eq!(env.expect("frame delivered").into_data::<u64>(), [5]);

        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                t.deliver(&registry, route(0, 1), Envelope::new(0, 8, vec![6u64]));
                std::thread::sleep(Duration::from_millis(20));
                p.ring_all();
            });
            for _ in 0..2 {
                let started = Instant::now();
                p.progress(&registry, 1, p.epoch(1), Duration::from_secs(10));
                assert!(started.elapsed() < Duration::from_secs(5), "a sleeper was not woken");
            }
        });
        t.shutdown();
    }

    /// Two writers, each on a ring toward the other that fills long
    /// before either receives: each drains its own inbound while it
    /// waits for room, so both finish, and every frame arrives in order.
    #[test]
    fn two_writers_on_full_rings_toward_each_other_both_finish() {
        let (t, registry) = attached(2, 4096);
        let frames = 200u64;
        std::thread::scope(|s| {
            for (src, dst) in [(0, 1), (1, 0)] {
                let (t, registry) = (&t, &registry);
                s.spawn(move || {
                    for i in 0..frames {
                        let env = Envelope::new(src, 3, vec![i; 8]);
                        let frame = wire::encode_data(WORLD_COMM_ID, dst, &env);
                        t.shared.push(registry, src, dst, &frame);
                    }
                    // Then receive, as a rank would: the peer may still be
                    // writing.
                    let mb = registry.mailbox(WORLD_COMM_ID, src);
                    for i in 0..frames {
                        let env = loop {
                            let seen = t.shared.epoch(src);
                            let since = mb.interrupt_seq();
                            let env = mb.recv_matching_timeout(dst, 3, since, Duration::ZERO);
                            if let Some(env) = env {
                                break env;
                            }
                            t.shared.progress(registry, src, seen, Duration::from_secs(10));
                        };
                        assert_eq!(env.into_data::<u64>(), [i; 8]);
                    }
                });
            }
        });
        t.shutdown();
    }

    /// A writer on a full ring gives the frame up once the world aborts,
    /// the reader is marked failed or says `BYE`, or the transport
    /// stops; each of these wakes it at once.
    #[test]
    fn a_writer_on_a_full_ring_gives_up_on_abort_failure_bye_and_stop() {
        for exit in ["abort", "failed", "bye", "stop"] {
            let (t, registry) = attached(2, 4096);
            let frame = [0u8; 1000];
            for _ in 0..3 {
                t.shared.push(&registry, 0, 1, &frame);
            }
            std::thread::scope(|s| {
                let writer = s.spawn(|| t.shared.push(&registry, 0, 1, &frame));
                std::thread::sleep(Duration::from_millis(50));
                assert!(!writer.is_finished(), "{exit}: the frame fit the ring");
                let started = Instant::now();
                match exit {
                    "abort" => registry.signal_abort(),
                    "failed" => registry.mark_failed(1),
                    "bye" => t.shared.push(&registry, 1, 0, &wire::encode_ctrl(CtrlMsg::Bye(1))),
                    _ => t.shutdown(),
                }
                writer.join().unwrap();
                let took = started.elapsed();
                assert!(took < WRITE_SLICE / 2, "{exit}: took {took:?}");
            });
            assert_eq!(t.shared.rings[&(0, 1)].pop_frame().unwrap().map(|f| f.len()), Some(1000));
            t.shutdown();
        }
    }

    /// Valid rings of data, ctrl and handoff frames, with a cursor, a
    /// length prefix or frame bytes mutated: every case is delivered or
    /// ends the link, with no panic and no read outside the mapping.
    #[test]
    fn seeded_ring_mutations_deliver_or_end_the_link_and_never_panic() {
        let t = ShmemTransport::loopback(2, 4096).unwrap();
        let shared = &*t.shared;
        let ring = &shared.rings[&(0, 1)];
        let (mut delivered, mut ended) = (0, 0);
        for seed in 0..1_500u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let registry = Registry::new();
            shared.handoff.lock().clear();
            // Start anywhere in the cursor space, so records wrap.
            let start = rng.next_u64() % (1 << 40);
            ring.head().store(start, Ordering::Release);
            ring.tail().store(start, Ordering::Release);
            let mut prefixes = Vec::new();
            let frames = 1 + rng.gen_index(0..4);
            for _ in 0..frames {
                let frame = match rng.gen_index(0..4) {
                    0 => {
                        let data: Vec<u64> =
                            (0..rng.gen_index(0..40)).map(|_| rng.next_u64()).collect();
                        wire::encode_data(WORLD_COMM_ID, 1, &Envelope::new(0, rng.next_u64(), data))
                    }
                    1 => {
                        let data: Vec<u8> =
                            (0..rng.gen_index(0..300)).map(|_| rng.next_u64() as u8).collect();
                        wire::encode_data(WORLD_COMM_ID, 1, &Envelope::new(0, 9, data))
                    }
                    2 => {
                        let token = shared.handoff_seq.fetch_add(1, Ordering::Relaxed);
                        shared.handoff.lock().insert(token, Envelope::new(0, 5, vec![token]));
                        wire::encode_handoff(WORLD_COMM_ID, 1, token)
                    }
                    _ => wire::encode_ctrl(CtrlMsg::Failed(rng.gen_index(0..4))),
                };
                prefixes.push(ring.tail().load(Ordering::Relaxed));
                ring.publish(prefixes[prefixes.len() - 1], &frame);
            }
            let tail = ring.tail().load(Ordering::Relaxed);
            let mutated = rng.gen_index(0..6);
            match mutated {
                // A head up to 4 KiB either side of the records.
                0 => {
                    let head = start.wrapping_add(rng.next_u64() % 8192).wrapping_sub(4096);
                    ring.head().store(head, Ordering::Release)
                }
                1 => ring.tail().store(rng.next_u64(), Ordering::Release),
                // A tail that cuts the records short.
                2 => {
                    let cut = 1 + rng.gen_index(0..(tail - start) as usize) as u64;
                    ring.tail().store(tail - cut, Ordering::Release)
                }
                3 => {
                    let at = prefixes[rng.gen_index(0..prefixes.len())];
                    ring.write_at(at, &(rng.next_u64() as u32).to_le_bytes());
                }
                4 => {
                    for _ in 0..1 + rng.gen_index(0..3) {
                        let at = start + rng.gen_index(0..(tail - start) as usize) as u64;
                        let mut byte = [0u8];
                        ring.read_at(at, &mut byte);
                        ring.write_at(at, &[byte[0] ^ (1 + rng.gen_index(0..255) as u8)]);
                    }
                }
                _ => {}
            }
            let (_, end) = shared.drain_ring(0, ring, &registry);
            match end {
                Some(_) => ended += 1,
                None => {
                    delivered += 1;
                    if mutated == 5 {
                        let left = shared.handoff.lock().len();
                        assert_eq!(left, 0, "seed {seed}: tokens left behind");
                    }
                }
            }
            if mutated == 5 {
                assert!(end.is_none(), "seed {seed}: a clean ring ended its link: {end:?}");
            }
        }
        assert!(delivered > 200 && ended > 200, "{delivered} delivered, {ended} ended");
    }
}
