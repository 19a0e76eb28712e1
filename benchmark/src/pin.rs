//! Pin the process to one CPU.
//!
//! The reference box is a shared 2-vCPU VM that does not reliably deliver
//! two cores: two busy threads get between 1.0× and 2.0× of one core's
//! throughput, and which of the two holds for minutes to hours at a time
//! (measured over one evening: `cutoff_imb` 41 ms or 70 ms per step,
//! `exact_ring` 31 ms or 50 ms). Wall time of a world whose ranks run
//! side by side therefore says more about the host than about the
//! program, and two sets of runs an hour apart differ by more than any
//! bound.
//!
//! On one CPU the ranks time-slice: a rank that blocks hands the CPU to
//! the other at once, nothing depends on whether a second core is there,
//! and a step measures the CPU cost of both ranks' work plus the
//! switches between them. What this gives up is stated in README.md.

/// Restrict this thread — and every thread it later spawns — to the
/// highest-numbered CPU it may run on (CPU 0 takes most interrupts).
/// Returns whether the restriction holds.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn to_one_cpu() -> bool {
    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;
    // 1024 CPUs, the kernel's default mask size.
    let mut mask = [0u64; 16];
    if affinity_syscall(SCHED_GETAFFINITY, &mut mask) <= 0 {
        return false;
    }
    let Some(word) = mask.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let bit = 63 - mask[word].leading_zeros();
    mask = [0; 16];
    mask[word] = 1 << bit;
    affinity_syscall(SCHED_SETAFFINITY, &mut mask) == 0
}

/// `sched_getaffinity` / `sched_setaffinity` on the calling thread; `std`
/// has no call for either. Returns the kernel's result (negative errno
/// on failure).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: isize, mask: &mut [u64; 16]) -> isize {
    let result: isize;
    // SAFETY: both calls take (pid = 0 for the calling thread, the mask's
    // size in bytes, a pointer to the mask) and read or write exactly that
    // many bytes of `mask`, which is live and exclusively borrowed for the
    // call. The `syscall` instruction clobbers only rax, rcx and r11.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") number => result,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    result
}

/// No affinity call on this platform: run unpinned.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn to_one_cpu() -> bool {
    false
}
