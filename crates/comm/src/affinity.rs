//! The CPUs a thread may run on, read from the kernel's affinity mask.
//!
//! A world reads its launching thread's mask once per launch, with one
//! `sched_getaffinity` call and nothing else (`available_parallelism`
//! also reads cgroup files, which costs more than a small world's whole
//! setup). The count decides whether the ranks outnumber their CPUs
//! (see [`crate::communicator::YIELD_TURNS`]); the CPUs themselves are
//! where an oversubscribed world starts its ranks (`CpuMask::start_on`).
//!
//! [`pin_to_one_cpu`] exists for tests and benches that measure the
//! oversubscribed case on any host: a thread pinned before it launches
//! a world hands the pin to every rank thread it spawns.

/// Words of the mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's mask, if the kernel reports one.
    pub fn get() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: pid 0 names the calling thread; the kernel writes at
        // most `size` bytes, the size of `mask`, which is live and
        // exclusively borrowed for the call.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (ok == 0).then_some(mask)
    }

    /// Restrict the calling thread to `mask`.
    pub fn set(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: pid 0 names the calling thread; the kernel reads
        // exactly `size` bytes of `mask`, which is live for the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::MASK_WORDS;

    pub fn get() -> Option<[u64; MASK_WORDS]> {
        None
    }

    pub fn set(_: &[u64; MASK_WORDS]) -> bool {
        false
    }
}

/// An affinity mask: the set of CPUs a thread may run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    /// The calling thread's mask; `None` where it cannot be read.
    pub(crate) fn of_this_thread() -> Option<CpuMask> {
        sys::get().map(CpuMask)
    }

    /// The mask holding exactly `cpus` (each below 1024).
    pub(crate) fn from_cpus(cpus: &[usize]) -> CpuMask {
        let mut words = [0u64; MASK_WORDS];
        for &cpu in cpus {
            words[cpu / 64] |= 1 << (cpu % 64);
        }
        CpuMask(words)
    }

    /// How many CPUs the mask holds.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The CPUs of the mask, lowest first.
    pub(crate) fn cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MASK_WORDS * 64).filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    /// Move the calling thread onto `cpu`, then hand it this whole mask
    /// back. The kernel leaves a thread where it runs until it has a
    /// reason to move it, so this is where the thread starts, not a pin.
    /// Returns whether the move happened.
    pub(crate) fn start_on(&self, cpu: usize) -> bool {
        sys::set(&CpuMask::from_cpus(&[cpu]).0) && sys::set(&self.0)
    }
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU of its mask (CPU 0 takes most
/// interrupts). Returns whether the restriction holds.
pub fn pin_to_one_cpu() -> bool {
    let Some(last) = CpuMask::of_this_thread().and_then(|m| m.cpus().last()) else {
        return false;
    };
    sys::set(&CpuMask::from_cpus(&[last]).0)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn cpus_in_mask() -> Option<usize> {
        CpuMask::of_this_thread().map(|m| m.len())
    }

    #[test]
    fn a_pinned_thread_sees_one_cpu_and_its_children_inherit_it() {
        let before = cpus_in_mask().expect("the mask is readable here");
        assert!(before >= 1);
        std::thread::spawn(|| {
            assert!(pin_to_one_cpu());
            assert_eq!(cpus_in_mask(), Some(1));
            let child = std::thread::spawn(cpus_in_mask).join().unwrap();
            assert_eq!(child, Some(1));
        })
        .join()
        .unwrap();
        // The pin stayed on the thread that took it.
        assert_eq!(cpus_in_mask(), Some(before));
    }

    #[test]
    fn a_thread_started_on_a_cpu_keeps_its_whole_mask() {
        let mask = CpuMask::of_this_thread().expect("the mask is readable here");
        assert_eq!(mask.cpus().count(), mask.len());
        let last = mask.cpus().last().expect("a CPU to run on");
        std::thread::spawn(move || {
            assert!(mask.start_on(last));
            assert_eq!(CpuMask::of_this_thread(), Some(mask));
        })
        .join()
        .unwrap();
    }
}
