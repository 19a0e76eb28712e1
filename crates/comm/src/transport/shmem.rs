//! The shared-memory pipe: memory-mapped SPSC byte rings, one per
//! ordered rank pair, under [`Wire`].
//!
//! Each ring is a plain file (`ring-<src>-<dst>`) under a shared
//! directory, mapped with `MAP_SHARED` so any process that opens it
//! sees the same bytes. The first two cachelines hold the consumer
//! (`head`) and producer (`tail`) cursors as monotonically increasing
//! byte counts; the rest is payload. A ring is a byte pipe, as a socket
//! is: [`wire`] frames (`len u32 | inner`) go through it back to back,
//! written with wraparound, and a frame larger than the ring goes
//! through in pieces while its reader drains.
//!
//! What the pipe adds to the wire:
//!
//! * **bytes** — the writer copies what fits in behind `tail` and
//!   publishes it with one release store; the rank the ring is
//!   addressed to copies what was published out. Cursors that publish
//!   more than the ring holds end the ring's link like bytes no frame
//!   can be made of; nothing panics;
//! * **sleep** — a futex word per rank in the shared `bells` file: every
//!   writer to the rank and every ledger interrupt rings it, and the
//!   word counts rings, so it is the rank's epoch. A writer on a full
//!   ring sleeps on its own word, which a consumer that frees space
//!   rings. Waits take their yield turns first.
//!
//! Two modes share the code: **loopback** ([`loopback`]: every rank is a
//! thread of this process; the files are unlinked once mapped) and
//! **per-process** ([`for_process`]: each rank is its own process
//! ([`crate::proc`]), in a directory the launching process owns as a
//! [`WorldDir`]). Failure-ledger news travels as CTRL frames through the
//! same rings.
//!
//! No external crates: `mmap`, `munmap` and `futex` are declared
//! against the C library that `std` already links.

use super::wire::{Pipe, Wire};
use super::TransportKind;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Ring header size: one cacheline for `head`, one for `tail`.
const HEADER_BYTES: usize = 128;

/// Smallest ring we will build; below this the header dominates.
const MIN_RING_BYTES: usize = 4096;

/// One rank's doorbell in the `bells` file: a cacheline holding the
/// futex word and the count of threads asleep on it.
const BELL_BYTES: usize = 64;

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
    /// no process has yet.
    #[cfg(unix)]
    fn open(path: &Path, len: usize) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(len as u64)?;
        let ptr = sys::map_shared(file.as_raw_fd(), len)?;
        Ok(Mapping { ptr, len })
    }

    #[cfg(not(unix))]
    fn open(_path: &Path, _len: usize) -> io::Result<Mapping> {
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
/// MIN_RING_BYTES` bytes long. Producers are serialized by the wire's
/// write lock of the link, the consumer by its rank's reader lock. Data
/// bytes are touched in the ring protocol: the producer writes only the
/// free span behind `tail` and publishes it with a release store of
/// `tail`; the consumer reads only the published span behind `head`,
/// after an acquire load of `tail`, and frees it with a release store of
/// `head`. No byte is read and written at once.
pub struct Ring {
    map: Mapping,
    capacity: u64,
}

impl Ring {
    fn open(path: &Path, ring_bytes: usize) -> io::Result<Ring> {
        assert!(
            ring_bytes >= MIN_RING_BYTES,
            "shm ring of {ring_bytes} bytes is below the {MIN_RING_BYTES}-byte minimum"
        );
        // Freshly created files are zero-filled, so head == tail == 0.
        Ok(Ring {
            map: Mapping::open(path, ring_bytes)?,
            capacity: (ring_bytes - HEADER_BYTES) as u64,
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

    /// Free bytes behind the tail. A head the peer moved past the tail
    /// reads as a full ring.
    fn room(&self) -> u64 {
        let used = self.tail().load(Ordering::Relaxed).wrapping_sub(self.head().load(Ordering::Acquire));
        self.capacity.saturating_sub(used)
    }

    /// Copy what fits of `bytes` in behind the tail and publish it with
    /// one release store. Producer side only (the link's write lock
    /// held). Returns how many bytes went in.
    fn write(&self, bytes: &[u8]) -> usize {
        let tail = self.tail().load(Ordering::Relaxed);
        let n = self.room().min(bytes.len() as u64);
        self.write_at(tail, &bytes[..n as usize]);
        self.tail().store(tail.wrapping_add(n), Ordering::Release);
        n as usize
    }

    /// Copy out what was published, at most `buf.len()` bytes, and free
    /// it. Consumer side only. The cursors may come from another
    /// process: what they publish must fit the ring, or the bytes are
    /// refused, and they move with wrapping arithmetic, so no cursor
    /// value panics.
    fn read(&self, buf: &mut [u8]) -> Result<usize, String> {
        let head = self.head().load(Ordering::Relaxed);
        let published = self.tail().load(Ordering::Acquire).wrapping_sub(head);
        if published > self.capacity {
            return Err(format!("{published} bytes published"));
        }
        let n = published.min(buf.len() as u64);
        self.read_at(head, &mut buf[..n as usize]);
        self.head().store(head.wrapping_add(n), Ordering::Release);
        Ok(n as usize)
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
        // Pairs with the consumer's fence in `Shm::try_read`: the count
        // is visible before `seen` reads the word and the ring.
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

/// The shmem pipe: every rank's doorbell.
pub struct Shm {
    bells: Bells,
}

impl Pipe for Shm {
    type Link = Arc<Ring>;
    type Reader = Arc<Ring>;
    const KIND: TransportKind = TransportKind::Shmem;

    fn try_write(&self, ring: &Arc<Ring>, dst: usize, bytes: &[u8]) -> io::Result<usize> {
        match ring.write(bytes) {
            0 => Err(io::ErrorKind::WouldBlock.into()),
            n => {
                self.bells.ring(dst);
                Ok(n)
            }
        }
    }

    /// Once bytes were taken, ring the writer's doorbell if it sleeps,
    /// since its ring has room now.
    fn try_read(&self, ring: &mut Arc<Ring>, src: usize, buf: &mut [u8]) -> Result<usize, Option<String>> {
        let n = ring.read(buf).map_err(|why| Some(format!("corrupt ring ({why})")))?;
        if n > 0 {
            // Orders the head store before the read of the writer's
            // sleeper count; pairs with the fence in `Bells::sleep`.
            fence(Ordering::SeqCst);
            if self.bells.sleepers(src).load(Ordering::SeqCst) > 0 {
                self.bells.ring(src);
            }
        }
        Ok(n)
    }

    fn hang_up(&self, _: &Arc<Ring>, _: bool) {}

    fn epoch(&self, rank: usize) -> u64 {
        self.bells.word(rank).load(Ordering::SeqCst) as u64
    }

    fn delivered(&self, rank: usize, _: u64) {
        self.bells.ring(rank);
    }

    fn sleep(&self, rank: usize, seen: u64, timeout: Duration) {
        self.bells.sleep(rank, timeout, || Some(seen as u32));
    }

    fn sleep_writer(&self, ring: &Arc<Ring>, src: usize, _: &mut bool, timeout: Duration) {
        self.bells.sleep(src, timeout, || {
            let seen = self.bells.word(src).load(Ordering::SeqCst);
            (ring.room() == 0).then_some(seen)
        });
    }

    fn ring(&self, rank: usize) {
        self.bells.ring(rank);
    }
}

/// Map the files of a `num_ranks` world under `dir` for its `hosted`
/// ranks: every ring a hosted rank writes or reads, and the doorbells.
/// A file no process has created yet is created zero-filled, so head ==
/// tail == 0.
fn open(dir: &Path, hosted: &[usize], num_ranks: usize, ring_bytes: usize) -> io::Result<Wire<Shm>> {
    let (mut links, mut readers) = (Vec::new(), Vec::new());
    for src in 0..num_ranks {
        for dst in (0..num_ranks).filter(|&d| d != src) {
            let (writes, reads) = (hosted.contains(&src), hosted.contains(&dst));
            if writes || reads {
                let ring = Arc::new(Ring::open(&ring_path(dir, src, dst), ring_bytes)?);
                if writes {
                    links.push(((src, dst), Arc::clone(&ring)));
                }
                if reads {
                    readers.push((dst, src, ring));
                }
            }
        }
    }
    let bells = Bells(Mapping::open(&dir.join("bells"), num_ranks.max(1) * BELL_BYTES)?);
    Ok(Wire::new(Shm { bells }, num_ranks, hosted, links, readers))
}

/// Build a loopback wire: every rank is a thread of this process. The
/// rings live in a fresh directory only until they are mapped.
pub fn loopback(num_ranks: usize, ring_bytes: usize) -> io::Result<Wire<Shm>> {
    let dir = WorldDir(fresh_dir("beatnik-shm")?);
    let hosted: Vec<usize> = (0..num_ranks).collect();
    open(dir.path(), &hosted, num_ranks, ring_bytes)
}

/// Join the world in `dir` as world rank `my_rank` (one process per
/// rank; the [`crate::proc`] launcher owns the directory).
pub fn for_process(dir: &Path, my_rank: usize, num_ranks: usize, ring_bytes: usize) -> io::Result<Wire<Shm>> {
    open(dir, &[my_rank], num_ranks, ring_bytes)
}

/// The directory of one world's ring files, removed with everything in
/// it when this drops, however the world ended. A mapped file outlives
/// its name, so only processes that have not joined yet need it.
pub struct WorldDir(PathBuf);

impl WorldDir {
    /// A fresh, empty directory for a world of processes under the
    /// temp dir.
    pub fn create() -> io::Result<WorldDir> {
        fresh_dir("beatnik-proc").map(WorldDir)
    }

    /// Where the files are (the launcher passes it to its children).
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorldDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use crate::registry::{Registry, WORLD_COMM_ID};
    use crate::transport::wire::{self, pipe_tests, Inbox, Incoming};
    use crate::transport::{CtrlMsg, Progress, Route, Transport};
    use beatnik_prng::Rng;
    use std::time::Instant;

    /// A ring in a directory that goes when the ring does.
    fn test_ring(bytes: usize) -> (Ring, WorldDir) {
        let dir = WorldDir(fresh_dir("beatnik-ring-test").unwrap());
        (Ring::open(&dir.path().join("ring"), bytes).unwrap(), dir)
    }

    /// Write all of `inner` as a frame, yielding while the ring is full.
    fn push_frame(ring: &Ring, inner: &[u8]) {
        let frame = wire::frame(inner.len(), |out| out.extend_from_slice(inner));
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match ring.write(rest) {
                0 => std::thread::yield_now(),
                n => rest = &rest[n..],
            }
        }
    }

    /// Read exactly `n` bytes, yielding while the ring is empty.
    fn pull(ring: &Ring, n: usize) -> Vec<u8> {
        let mut out = vec![0; n];
        let mut got = 0;
        while got < n {
            match ring.read(&mut out[got..]).unwrap() {
                0 => std::thread::yield_now(),
                k => got += k,
            }
        }
        out
    }

    fn route(src: usize, dst: usize) -> Route {
        Route {
            comm: WORLD_COMM_ID,
            dst_local: dst,
            src_world: src,
            dst_world: dst,
        }
    }

    #[test]
    fn ring_roundtrips_frames_in_order() {
        let (ring, _dir) = test_ring(4096);
        assert_eq!(ring.read(&mut [0; 64]), Ok(0));
        push_frame(&ring, b"alpha");
        push_frame(&ring, b"bravo-longer");
        assert_eq!(pull(&ring, 9), b"\x05\0\0\0alpha");
        assert_eq!(pull(&ring, 16), b"\x0c\0\0\0bravo-longer");
        assert_eq!(ring.read(&mut [0; 64]), Ok(0));
    }

    #[test]
    fn ring_wraps_and_survives_pressure() {
        let (ring, _dir) = test_ring(4096);
        // Capacity is 4096 - 128; frames of 1000 bytes force wraps and
        // back-pressure interleaving across many laps.
        let producer_ring = Arc::new(ring);
        let consumer_ring = Arc::clone(&producer_ring);
        let producer = std::thread::spawn(move || {
            for i in 0..500u32 {
                push_frame(&producer_ring, &vec![(i % 251) as u8; 1000]);
            }
        });
        for seen in 0..500u32 {
            let frame = pull(&consumer_ring, 1004);
            assert_eq!(frame[..4], 1000u32.to_le_bytes());
            assert!(frame[4..].iter().all(|&b| b == (seen % 251) as u8));
        }
        producer.join().unwrap();
    }

    /// Cursors that publish more than the ring holds — a peer process
    /// that broke the protocol — are refused instead of read outside
    /// the mapping. A length prefix past what was published is a frame
    /// still on its way: the reader takes what was published and no
    /// byte more.
    #[test]
    fn a_cursor_publishing_more_than_the_ring_holds_is_refused() {
        let (ring, _dir) = test_ring(4096);
        ring.tail().store(4096, Ordering::Release);
        let why = ring.read(&mut [0; 64]).expect_err("4 KiB published in a 3,968-byte ring");
        assert!(why.contains("4096 bytes published"), "{why}");
        // A tail behind the head (a wrapped subtraction) is refused too.
        ring.head().store(4104, Ordering::Release);
        assert!(ring.read(&mut [0; 64]).is_err(), "a tail behind the head");
        ring.head().store(0, Ordering::Release);
        ring.write_at(0, &(1u32 << 20).to_le_bytes());
        ring.tail().store(8, Ordering::Release);
        assert_eq!(ring.read(&mut [0; 64]), Ok(8));
        assert_eq!(ring.head().load(Ordering::Acquire), 8);
        // Cursors at the end of their range wrap instead of panicking.
        ring.head().store(u64::MAX - 2, Ordering::Release);
        ring.tail().store(5, Ordering::Release);
        assert_eq!(ring.read(&mut [0; 64]), Ok(8));
        assert_eq!(ring.head().load(Ordering::Acquire), 5);
    }

    /// A frame twice the ring's size goes through it in pieces while the
    /// receiver drains.
    #[test]
    fn a_frame_larger_than_the_ring_goes_through_in_pieces() {
        let (t, registry) = pipe_tests::attached(loopback(2, 4096).unwrap());
        let big: Vec<u64> = (0..1024).collect();
        std::thread::scope(|s| {
            s.spawn(|| t.deliver(&registry, route(0, 1), Envelope::new(0, 1, big.clone())));
            let mb = registry.mailbox(WORLD_COMM_ID, 1);
            let env = loop {
                let seen = t.0.epoch(1);
                let env = mb.recv_matching_timeout(0, 1, mb.interrupt_seq(), Duration::ZERO);
                if let Some(env) = env {
                    break env;
                }
                t.0.progress(&registry, 1, seen, Duration::from_secs(10));
            };
            assert_eq!(env.into_data::<u64>(), big);
        });
        t.shutdown();
    }

    /// A rank asleep in `progress` sleeps its timeout when nothing
    /// comes, and wakes at once for a write toward it or a ring of its
    /// doorbell; a write that lands between its epoch read and its
    /// sleep is not slept through.
    #[test]
    fn a_waiting_rank_wakes_for_a_write_toward_it_and_for_a_ring() {
        let (t, registry) = pipe_tests::attached(loopback(2, 4096).unwrap());
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

    #[test]
    fn two_writers_on_full_rings_toward_each_other_both_finish() {
        pipe_tests::two_writers_on_full_links_toward_each_other_both_finish(loopback(2, 4096).unwrap(), 200, 8);
    }

    #[test]
    fn a_writer_on_a_full_ring_gives_up_on_abort_failure_bye_and_stop() {
        // Three of these fill the 3,968 bytes a 4 KiB ring holds.
        let frame = pipe_tests::data_frame(0, 1, 3, 0, 120);
        pipe_tests::a_writer_on_a_full_link_gives_up_on_abort_failure_bye_and_stop(
            || loopback(2, 4096).unwrap(),
            &frame,
            3,
        );
    }

    /// Valid rings of data and ctrl frames, with a cursor, a length
    /// prefix or frame bytes mutated: every case is delivered (or waits
    /// for the rest of a frame) or ends the link, with no panic and no
    /// read outside the mapping.
    #[test]
    fn seeded_ring_mutations_deliver_or_end_the_link_and_never_panic() {
        let t = loopback(2, 4096).unwrap();
        let core = &*t.0;
        let ring = Arc::clone(&core.links[&(0, 1)].1);
        let (mut delivered, mut ended) = (0, 0);
        for seed in 0..1_500u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let registry = Registry::new();
            // Start anywhere in the cursor space, so records wrap.
            let start = rng.next_u64() % (1 << 40);
            ring.head().store(start, Ordering::Release);
            ring.tail().store(start, Ordering::Release);
            let mut prefixes = Vec::new();
            let frames = 1 + rng.gen_index(0..4);
            for _ in 0..frames {
                let inner = match rng.gen_index(0..3) {
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
                    _ => wire::encode_ctrl(CtrlMsg::Failed(rng.gen_index(0..4))),
                };
                prefixes.push(ring.tail().load(Ordering::Relaxed));
                let frame = wire::frame(inner.len(), |out| out.extend_from_slice(&inner));
                assert_eq!(ring.write(&frame), frame.len());
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
            let mut link = Incoming { src: 0, inbox: Inbox::new(), reader: Arc::clone(&ring) };
            let end = core.read_link(&registry, &mut link, &mut 0);
            match &end {
                Err(_) => ended += 1,
                Ok(()) => delivered += 1,
            }
            if mutated == 5 {
                assert!(end.is_ok(), "seed {seed}: a clean ring ended its link: {end:?}");
            }
        }
        assert!(delivered > 200 && ended > 200, "{delivered} delivered, {ended} ended");
    }
}
