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
//! Two modes share the code:
//!
//! * **loopback** — all ranks are threads of this process; one poller
//!   drains every ring into the shared registry's mailboxes. Used by
//!   the backend test matrix so the full collective/fault suites
//!   exercise real serialization and real shared memory. Large
//!   wire-safe envelopes ([`HANDOFF_MIN_BYTES`] or more) skip
//!   serialization entirely: the envelope is stashed in a
//!   process-local **handoff slab** and only a ~21-byte `HANDOFF`
//!   token rides the ring, so FIFO order against smaller serialized
//!   frames is preserved while the payload allocation moves by
//!   pointer — `bytes_copied_per_op == 0` for large messages, same as
//!   the thread backend. (A handoff frame also never hits the ring's
//!   frame-size ceiling, so loopback worlds can carry messages larger
//!   than the ring itself.)
//! * **per-process** ([`ShmemTransport::for_process`]) — each rank is
//!   its own process (spawned by [`crate::proc`]); the poller drains
//!   only rings addressed to the local rank, and failure-ledger news
//!   travels as CTRL frames through the same rings.
//!
//! No external crates: the two `mmap`/`munmap` calls are declared
//! directly against the C library that `std` already links.

use super::{wire, CtrlMsg, Route, Transport, TransportKind};
use crate::message::Envelope;
use crate::registry::Registry;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ring header size: one cacheline for `head`, one for `tail`.
const HEADER_BYTES: usize = 128;

/// Smallest ring we will build; below this the header dominates.
const MIN_RING_BYTES: usize = 4096;

/// Smallest payload that rides the handoff slab when the destination
/// is in this process; below it a memcpy through the ring is cheaper
/// than the slab's lock and token round trip.
const HANDOFF_MIN_BYTES: usize = 8192;

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
        // returned and that nothing will touch again (`Ring::drop`).
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

/// One memory-mapped SPSC ring. The producer side is serialized by
/// `write_lock` (belt and braces — in per-process mode only one thread
/// produces, but loopback worlds may publish ctrl news from any rank
/// thread); the consumer side is the single poller thread.
///
/// The invariant every `unsafe` block below relies on: from
/// [`Ring::open`] until drop, `ptr` is the start of a live shared
/// mapping of `len` bytes, page-aligned (so the two cursor words at
/// offsets 0 and 64 are aligned for `AtomicU64`), with
/// `len = HEADER_BYTES + capacity` and `len >= MIN_RING_BYTES`. The
/// cursors are only ever touched as atomics. Data bytes are touched by
/// one producer and one consumer, in the ring protocol: the producer
/// writes only the free span behind `tail` and then publishes it with a
/// release store of `tail`; the consumer reads only the published span
/// behind `head`, after an acquire load of `tail`, and then frees it
/// with a release store of `head`. No byte is read and written at once.
struct Ring {
    ptr: *mut u8,
    len: usize,
    capacity: u64,
    write_lock: Mutex<()>,
}

// SAFETY: `ptr` owns nothing thread-local: it is a shared mapping that
// lives until drop, whichever thread drops it.
unsafe impl Send for Ring {}
// SAFETY: shared use goes through `&self` methods that touch the cursors
// only as atomics, serialize producers with `write_lock`, and touch data
// bytes only in the ring protocol (see the type docs).
unsafe impl Sync for Ring {}

impl Drop for Ring {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

impl Ring {
    #[cfg(unix)]
    fn open(path: &Path, ring_bytes: usize, create: bool) -> io::Result<Ring> {
        use std::os::fd::AsRawFd;
        assert!(
            ring_bytes >= MIN_RING_BYTES,
            "shm ring of {ring_bytes} bytes is below the {MIN_RING_BYTES}-byte minimum"
        );
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(path)?;
        // Freshly created files are zero-filled, so head == tail == 0.
        file.set_len(ring_bytes as u64)?;
        let ptr = sys::map_shared(file.as_raw_fd(), ring_bytes)?;
        Ok(Ring {
            ptr,
            len: ring_bytes,
            capacity: (ring_bytes - HEADER_BYTES) as u64,
            write_lock: Mutex::new(()),
        })
    }

    #[cfg(not(unix))]
    fn open(_path: &Path, _ring_bytes: usize, _create: bool) -> io::Result<Ring> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the shmem transport requires a unix platform (mmap)",
        ))
    }

    fn head(&self) -> &AtomicU64 {
        // SAFETY: offset 0 of the live, page-aligned mapping holds the
        // consumer cursor, used only as an atomic; the reference cannot
        // outlive `self`, nor therefore the mapping.
        unsafe { &*(self.ptr as *const AtomicU64) }
    }

    fn tail(&self) -> &AtomicU64 {
        // SAFETY: as in `head`, for the producer cursor at offset 64,
        // inside the header (`HEADER_BYTES` is 128).
        unsafe { &*(self.ptr.add(64) as *const AtomicU64) }
    }

    fn data(&self) -> *mut u8 {
        // SAFETY: `HEADER_BYTES < len`, so the offset stays inside the
        // mapping.
        unsafe { self.ptr.add(HEADER_BYTES) }
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

    /// Append one length-prefixed frame, spinning while the ring is
    /// full (the poller on the other side is always draining, so the
    /// wait is bounded by consumer speed, not application behavior).
    fn push_frame(&self, frame: &[u8]) {
        let need = 4 + frame.len() as u64;
        assert!(
            need <= self.capacity,
            "a {} byte frame exceeds the {} byte shm ring; raise {}",
            frame.len(),
            self.capacity,
            crate::config::SHM_RING_BYTES_ENV,
        );
        let _guard = self.write_lock.lock().unwrap();
        let tail = self.tail().load(Ordering::Relaxed);
        let mut spins = 0u32;
        while self.capacity - (tail - self.head().load(Ordering::Acquire)) < need {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.write_at(tail, &(frame.len() as u32).to_le_bytes());
        self.write_at(tail + 4, frame);
        // One release store per record: a consumer that sees the new
        // tail sees the whole frame.
        self.tail().store(tail + need, Ordering::Release);
    }

    /// Take the next frame if one is complete. Consumer side only.
    fn pop_frame(&self) -> Option<Vec<u8>> {
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        // The cursors and the length prefix may come from another
        // process: a record must lie inside what was published, and that
        // inside the ring.
        let published = tail.wrapping_sub(head);
        let mut len_bytes = [0u8; 4];
        assert!(
            (4..=self.capacity).contains(&published),
            "corrupt shm record: {published} bytes published"
        );
        self.read_at(head, &mut len_bytes);
        let len = u32::from_le_bytes(len_bytes) as usize;
        assert!(
            4 + len as u64 <= published,
            "corrupt shm record: a {len}-byte frame in {published} published bytes"
        );
        let mut frame = vec![0u8; len];
        self.read_at(head + 4, &mut frame);
        self.head().store(head + 4 + len as u64, Ordering::Release);
        Some(frame)
    }
}

fn ring_path(dir: &Path, src: usize, dst: usize) -> PathBuf {
    dir.join(format!("ring-{src}-{dst}"))
}

/// Process-unique suffix for loopback ring directories.
fn unique_suffix() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// The shared-memory transport. See the module docs for the two modes.
pub struct ShmemTransport {
    /// `(src_world, dst_world) -> ring`, producers keyed by sender.
    rings: HashMap<(usize, usize), Arc<Ring>>,
    /// Rings this side consumes, in deterministic sweep order.
    drain: Vec<Arc<Ring>>,
    /// World ranks hosted by this process (all of them in loopback).
    local: Vec<usize>,
    dir: PathBuf,
    /// Loopback owns the directory and deletes it on shutdown.
    owns_dir: bool,
    stop: Arc<AtomicBool>,
    poller: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Process-local slab of envelopes travelling zero-copy: the ring
    /// carries only a token, the poller claims the envelope from here.
    /// Shared with the poller thread.
    handoff: Arc<Mutex<HashMap<u64, Envelope>>>,
    /// Token mint for the slab.
    handoff_seq: AtomicU64,
}

impl ShmemTransport {
    /// Build a loopback transport: every rank is a thread of this
    /// process, rings live in a fresh private directory, and one poller
    /// drains them all into the shared registry. Wire-safe payloads of
    /// [`HANDOFF_MIN_BYTES`] or more move zero-copy through the handoff
    /// slab.
    pub fn loopback(num_ranks: usize, ring_bytes: usize) -> io::Result<ShmemTransport> {
        let dir = std::env::temp_dir().join(format!("beatnik-shm-{}", unique_suffix()));
        std::fs::create_dir_all(&dir)?;
        let mut me = ShmemTransport {
            rings: HashMap::new(),
            drain: Vec::new(),
            local: (0..num_ranks).collect(),
            dir,
            owns_dir: true,
            stop: Arc::new(AtomicBool::new(false)),
            poller: Mutex::new(None),
            handoff: Arc::new(Mutex::new(HashMap::new())),
            handoff_seq: AtomicU64::new(0),
        };
        for src in 0..num_ranks {
            for dst in 0..num_ranks {
                if src == dst {
                    continue;
                }
                let ring = Arc::new(Ring::open(&ring_path(&me.dir, src, dst), ring_bytes, true)?);
                me.drain.push(Arc::clone(&ring));
                me.rings.insert((src, dst), ring);
            }
        }
        Ok(me)
    }

    /// Join an existing ring directory as world rank `my_rank` (one
    /// process per rank; the [`crate::proc`] parent creates the files
    /// by building its own transport first).
    pub fn for_process(
        dir: &Path,
        my_rank: usize,
        num_ranks: usize,
        ring_bytes: usize,
    ) -> io::Result<ShmemTransport> {
        let mut me = ShmemTransport {
            rings: HashMap::new(),
            drain: Vec::new(),
            local: vec![my_rank],
            dir: dir.to_path_buf(),
            owns_dir: false,
            stop: Arc::new(AtomicBool::new(false)),
            poller: Mutex::new(None),
            handoff: Arc::new(Mutex::new(HashMap::new())),
            // Every cross-rank destination is another process, so the
            // slab never engages (`local` holds only this rank).
            handoff_seq: AtomicU64::new(0),
        };
        for peer in 0..num_ranks {
            if peer == my_rank {
                continue;
            }
            let out = Arc::new(Ring::open(
                &ring_path(dir, my_rank, peer),
                ring_bytes,
                false,
            )?);
            me.rings.insert((my_rank, peer), out);
            let inc = Arc::new(Ring::open(
                &ring_path(dir, peer, my_rank),
                ring_bytes,
                false,
            )?);
            me.drain.push(Arc::clone(&inc));
            me.rings.insert((peer, my_rank), inc);
        }
        Ok(me)
    }

    /// The ring directory (the proc launcher passes it to children).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Create a fresh world directory with one zero-initialized ring
    /// file per ordered rank pair. The [`crate::proc`] parent calls this
    /// before spawning children, then joins the world itself via
    /// [`ShmemTransport::for_process`].
    pub fn create_world_dir(num_ranks: usize, ring_bytes: usize) -> io::Result<PathBuf> {
        let dir = std::env::temp_dir().join(format!("beatnik-proc-{}", unique_suffix()));
        std::fs::create_dir_all(&dir)?;
        for src in 0..num_ranks {
            for dst in 0..num_ranks {
                if src != dst {
                    let file = std::fs::File::create(ring_path(&dir, src, dst))?;
                    file.set_len(ring_bytes as u64)?;
                }
            }
        }
        Ok(dir)
    }
}

impl Transport for ShmemTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shmem
    }

    fn attach(&self, registry: &Arc<Registry>) {
        let registry = Arc::clone(registry);
        let rings: Vec<Arc<Ring>> = self.drain.clone();
        let stop = Arc::clone(&self.stop);
        let handoff = Arc::clone(&self.handoff);
        let handle = std::thread::Builder::new()
            .name("beatnik-shm-poller".into())
            .spawn(move || {
                let mut idle_sweeps = 0u32;
                loop {
                    let mut drained = false;
                    for ring in &rings {
                        while let Some(frame) = ring.pop_frame() {
                            drained = true;
                            match wire::decode(&frame) {
                                // Handoff tokens are claimed here, where
                                // the sender's slab is in reach; the
                                // stashed envelope moves by pointer into
                                // the destination mailbox, in ring order.
                                Ok(wire::Frame::Handoff {
                                    comm,
                                    dst_local,
                                    token,
                                }) => {
                                    let env = handoff
                                        .lock()
                                        .unwrap()
                                        .remove(&token)
                                        .unwrap_or_else(|| {
                                            panic!("handoff token {token} with no stashed envelope")
                                        });
                                    registry.mailbox(comm, dst_local).push(env);
                                }
                                Ok(f) => wire::apply(f, &registry),
                                Err(e) => panic!("corrupt shm frame: {e}"),
                            }
                        }
                    }
                    if drained {
                        idle_sweeps = 0;
                        continue;
                    }
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    idle_sweeps += 1;
                    if idle_sweeps < 256 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            })
            .expect("spawning the shm poller thread");
        *self.poller.lock().unwrap() = Some(handle);
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never cross the wire (and may carry types with
            // drop glue, which the wire would rightly refuse).
            registry.mailbox(route.comm, route.dst_local).push(env);
            return;
        }
        let ring = self
            .rings
            .get(&(route.src_world, route.dst_world))
            .unwrap_or_else(|| {
                panic!(
                    "no shm ring for {} -> {}",
                    route.src_world, route.dst_world
                )
            });
        // Zero-copy handoff: when the destination mailbox lives in this
        // process and the payload is large and wire-safe, stash the
        // envelope and push only a token through the ring. The token
        // flows through the same FIFO ring as serialized frames, so
        // non-overtaking order is preserved; droppy payloads (no wire
        // view) keep today's loud serialization failure rather than
        // silently working only above the threshold.
        if env.bytes >= HANDOFF_MIN_BYTES
            && env.wire_view().is_some()
            && self.local.contains(&route.dst_world)
        {
            let token = self.handoff_seq.fetch_add(1, Ordering::Relaxed);
            self.handoff.lock().unwrap().insert(token, env);
            ring.push_frame(&wire::encode_handoff(route.comm, route.dst_local, token));
            return;
        }
        ring.push_frame(&wire::encode_data(route.comm, route.dst_local, &env));
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        // Loopback worlds share the ledger; only per-process mode needs
        // to broadcast (its only local rank is `local[0]`).
        if self.local.len() != 1 {
            return;
        }
        let me = self.local[0];
        let frame = wire::encode_ctrl(ctrl);
        for ((src, _dst), ring) in &self.rings {
            if *src == me {
                ring.push_frame(&frame);
            }
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.poller.lock().unwrap().take() {
            let _ = handle.join();
        }
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn test_ring(bytes: usize) -> (Ring, PathBuf) {
        let path = std::env::temp_dir().join(format!("beatnik-ring-test-{}", unique_suffix()));
        let ring = Ring::open(&path, bytes, true).unwrap();
        (ring, path)
    }

    #[test]
    fn ring_roundtrips_frames_in_order() {
        let (ring, path) = test_ring(4096);
        assert!(ring.pop_frame().is_none());
        ring.push_frame(b"alpha");
        ring.push_frame(b"bravo-longer");
        assert_eq!(ring.pop_frame().unwrap(), b"alpha");
        assert_eq!(ring.pop_frame().unwrap(), b"bravo-longer");
        assert!(ring.pop_frame().is_none());
        drop(ring);
        let _ = std::fs::remove_file(path);
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
                let frame = vec![(i % 251) as u8; 1000];
                producer_ring.push_frame(&frame);
            }
        });
        let mut seen = 0u32;
        while seen < 500 {
            if let Some(frame) = consumer_ring.pop_frame() {
                assert_eq!(frame.len(), 1000);
                assert!(frame.iter().all(|&b| b == (seen % 251) as u8));
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        drop(consumer_ring);
        let _ = std::fs::remove_file(path);
    }

    /// A length prefix or cursor that points past what was published —
    /// a peer process that broke the protocol — panics instead of
    /// reading outside the record, let alone the mapping.
    #[test]
    fn a_record_longer_than_what_was_published_is_refused() {
        let (ring, path) = test_ring(4096);
        ring.write_at(0, &(1u32 << 20).to_le_bytes());
        ring.tail().store(8, Ordering::Release);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.pop_frame()));
        let msg = caught.expect_err("a 1 MiB record in 8 bytes").downcast::<String>().unwrap();
        assert!(msg.contains("corrupt shm record: a 1048576-byte frame"), "{msg}");
        // A tail behind the head (a wrapped subtraction) is refused too.
        ring.head().store(16, Ordering::Release);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.pop_frame()));
        assert!(caught.is_err(), "a tail behind the head");
        drop(ring);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_frames_panic_with_the_env_hint() {
        let (ring, _path) = test_ring(4096);
        ring.push_frame(&vec![0u8; 8192]);
    }

    #[test]
    fn handoff_moves_large_envelopes_without_serialization_in_ring_order() {
        let registry = Arc::new(Registry::new());
        // The 8-byte messages serialize, the 8 KiB one rides the slab:
        // it exceeds the 4 KiB ring, so it can only arrive via handoff —
        // reaching the mailbox at all proves no serialized frame
        // carried it.
        let t = ShmemTransport::loopback(2, 4096).unwrap();
        t.attach(&registry);
        let r = Route {
            comm: 0,
            dst_local: 1,
            src_world: 0,
            dst_world: 1,
        };
        let big: Vec<u64> = (0..1024).collect();
        t.deliver(&registry, r, Envelope::new(0, 1, vec![7u64]));
        t.deliver(&registry, r, Envelope::new(0, 1, big.clone()));
        t.deliver(&registry, r, Envelope::new(0, 1, vec![9u64]));
        let mb = registry.mailbox(0, 1);
        let recv = || {
            mb.recv_matching_timeout(0, 1, mb.interrupt_seq(), Duration::from_secs(5))
                .expect("frame should arrive")
                .into_data::<u64>()
        };
        // One (src, tag) stream absorbs strictly in arrival order: the
        // handoff token must not have overtaken frame 1 nor been
        // overtaken by frame 3.
        assert_eq!(recv(), [7]);
        assert_eq!(recv(), big);
        assert_eq!(recv(), [9]);
        assert!(t.handoff.lock().unwrap().is_empty(), "slab must drain");
        t.shutdown();
    }

    /// Every rank of a loopback world is local, so an envelope at the
    /// handoff threshold reaches any of them as the sender's own
    /// allocation: the received `Vec` has the address the sent one had.
    #[test]
    fn handoff_capability_tracks_local_ranks() {
        let registry = Arc::new(Registry::new());
        let t = ShmemTransport::loopback(3, 4096).unwrap();
        t.attach(&registry);
        for dst in [0, 2] {
            let r = Route {
                comm: 0,
                dst_local: dst,
                src_world: 1,
                dst_world: dst,
            };
            let sent = vec![dst as u8; HANDOFF_MIN_BYTES];
            let sent_at = sent.as_ptr();
            t.deliver(&registry, r, Envelope::new(1, 4, sent));
            let mb = registry.mailbox(0, dst);
            let got = mb
                .recv_matching_timeout(1, 4, mb.interrupt_seq(), Duration::from_secs(5))
                .expect("the handoff arrives")
                .into_data::<u8>();
            assert_eq!(got.as_ptr(), sent_at, "rank {dst} got a copy");
            assert_eq!(got, vec![dst as u8; HANDOFF_MIN_BYTES]);
        }
        t.shutdown();
    }
}
