//! CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`), the checksum
//! on every TCP data frame.
//!
//! Two routines compute the same function — initial value and final
//! XOR `!0`, bits reflected, exactly the CRC the x86 `crc32` instruction
//! and iSCSI define — so a frame summed by one verifies under the
//! other: the SSE4.2 instruction eight bytes at a time where the CPU has
//! it, and a slicing-by-8 table loop everywhere else. The choice is
//! made from what the CPU reports, per call; there is nothing to set.
//! The tables are built at compile time, so a world launch pays nothing
//! for them.

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, which lets eight input bytes fold into the state with eight
/// independent lookups.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32C of `bytes`.
pub(super) fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 support was just verified at runtime.
        return unsafe { sse42(bytes) };
    }
    slicing8(bytes)
}

/// Portable path: eight bytes per step through [`TABLES`].
fn slicing8(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Hardware path: the `crc32` instruction, eight bytes per issue.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32 as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_prng::Rng;

    /// The byte-at-a-time table loop this module replaced, with the
    /// Castagnoli polynomial in place of the IEEE one: the reference
    /// both fast paths must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    type Path = (&'static str, fn(&[u8]) -> u32);

    /// Every routine the running CPU can execute, by name.
    fn paths() -> Vec<Path> {
        let mut v: Vec<Path> = vec![("dispatch", crc32c), ("slicing8", slicing8)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 support was just verified at runtime.
            v.push(("sse42", |b| unsafe { sse42(b) }));
        }
        v
    }

    #[test]
    fn check_value_is_the_castagnoli_one() {
        for (name, f) in paths() {
            assert_eq!(f(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(f(b""), 0, "{name}");
        }
    }

    #[test]
    fn all_paths_agree_at_every_short_length_and_alignment() {
        let mut rng = Rng::seed_from_u64(0xC4C);
        let pool: Vec<u8> = (0..80).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &pool[offset..offset + len];
                let want = bytewise(bytes);
                for (name, f) in paths() {
                    assert_eq!(f(bytes), want, "{name} at offset {offset}, length {len}");
                }
            }
        }
    }

    #[test]
    fn all_paths_agree_on_a_mebibyte() {
        let mut rng = Rng::seed_from_u64(0x1_0000);
        let mut bytes = Vec::with_capacity(1 << 20);
        while bytes.len() < 1 << 20 {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        let want = bytewise(&bytes);
        for (name, f) in paths() {
            assert_eq!(f(&bytes), want, "{name}");
        }
    }
}
