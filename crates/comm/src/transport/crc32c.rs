//! CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`), the checksum
//! on every TCP data frame.
//!
//! Every routine here computes the same function — initial value and
//! final XOR `!0`, bits reflected, exactly the CRC the x86 `crc32`
//! instruction and iSCSI define — so a frame summed by one verifies
//! under another. Where the CPU has SSE4.2, [`crc32c`] runs three
//! `crc32` streams side by side over consecutive [`BLK`]-byte blocks
//! (the instruction's latency is three times its issue interval, so one
//! stream leaves two thirds of the unit idle) and folds them together
//! with a zero-shift table; the single-stream loop sums the tail and is
//! kept whole as [`one_stream`]. Elsewhere a slicing-by-8 table loop
//! does the work. The choice is made from what the CPU reports, per
//! call; there is nothing to set. The tables are built at compile time,
//! so a world launch pays nothing for them.

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

/// Bytes each of the three streams sums per round.
const BLK: usize = 512;

/// `SHIFT[k][b]` is the CRC state reached from state `b << 8k` after
/// [`BLK`] zero bytes. The map is linear over GF(2), so four lookups
/// move any state past a block: see [`shift`].
static SHIFT: [[u32; 256]; 4] = build_shift(BLK);

const fn build_shift(zeros: usize) -> [[u32; 256]; 4] {
    // Image of each single-bit state under `zeros` zero bytes.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut c = 1u32 << bit;
        let mut n = 0;
        while n < zeros {
            c = TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
            n += 1;
        }
        basis[bit] = c;
        bit += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut image = 0;
            let mut i = 0;
            while i < 8 {
                if b & (1 << i) != 0 {
                    image ^= basis[8 * k + i];
                }
                i += 1;
            }
            t[k][b] = image;
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC state `crc` becomes after [`BLK`] zero bytes.
#[inline]
fn shift(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 support was just verified at runtime.
        return unsafe { sse42_three(bytes) };
    }
    slicing8(bytes)
}

/// CRC-32C of `bytes` by one dependent chain: the hardware loop the
/// three-stream path folds its tail with, or [`slicing8`] without
/// SSE4.2. The reference [`crc32c`] is measured against.
pub fn one_stream(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 support was just verified at runtime.
        return unsafe { !sse42(!0, bytes) };
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

/// Hardware path, one stream: the `crc32` instruction eight bytes per
/// issue, from raw state `crc` (no initial or final XOR).
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = crc as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Hardware path, three streams. Each round sums three consecutive
/// [`BLK`]-byte blocks `a | b | c` at once: `a` continues from the
/// running state, `b` and `c` start from zero. The CRC is linear, so
/// the state after all three is `shift(shift(a) ^ b) ^ c`. Whatever is
/// left after the last whole round goes through the single stream.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn sse42_three(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let word = |block: &[u8], i: usize| {
        u64::from_le_bytes(block[i..i + 8].try_into().expect("8-byte word"))
    };
    let mut crc = !0u32;
    let mut rounds = bytes.chunks_exact(3 * BLK);
    for round in &mut rounds {
        let (a, rest) = round.split_at(BLK);
        let (b, c) = rest.split_at(BLK);
        let (mut sa, mut sb, mut sc) = (crc as u64, 0u64, 0u64);
        for i in (0..BLK).step_by(8) {
            sa = _mm_crc32_u64(sa, word(a, i));
            sb = _mm_crc32_u64(sb, word(b, i));
            sc = _mm_crc32_u64(sc, word(c, i));
        }
        crc = shift(shift(sa as u32) ^ sb as u32) ^ sc as u32;
    }
    !sse42(crc, rounds.remainder())
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
        let mut v: Vec<Path> = vec![
            ("dispatch", crc32c),
            ("one_stream", one_stream),
            ("slicing8", slicing8),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 support was just verified at runtime.
            v.push(("sse42", |b| unsafe { !sse42(!0, b) }));
            v.push(("sse42_three", |b| unsafe { sse42_three(b) }));
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

    /// Every length up to four whole rounds plus a 15-byte tail, at
    /// every alignment: no round, no tail and every round/tail split
    /// the three-stream path can meet. The reference is built a byte
    /// at a time, prefix by prefix.
    #[test]
    fn all_paths_agree_through_four_rounds_at_every_alignment() {
        let most = 4 * 3 * BLK + 15;
        let mut rng = Rng::seed_from_u64(0x3_57EA);
        let pool: Vec<u8> = (0..most + 8).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            let bytes = &pool[offset..offset + most];
            let mut state = !0u32;
            for len in 0..=most {
                let want = !state;
                for (name, f) in paths() {
                    assert_eq!(f(&bytes[..len]), want, "{name} at offset {offset}, length {len}");
                }
                if len < most {
                    state ^= bytes[len] as u32;
                    for _ in 0..8 {
                        state = if state & 1 != 0 { 0x82F6_3B78 ^ (state >> 1) } else { state >> 1 };
                    }
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
