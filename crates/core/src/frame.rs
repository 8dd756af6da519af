//! Checksummed, length-prefixed record framing.
//!
//! The durability layer (WAL + snapshot files in `req-service`) stores a
//! sequence of records on disk: a WAL holds one frame per record, and a
//! snapshot file one frame for its header, one per tenant (its
//! configuration and raw [`crate::ReqSketch::to_bytes`] shards) and one
//! for the dedup table. A raw [`crate::binary`] payload cannot
//! stand alone in such a sequence: a crash can truncate the last record
//! mid-write, and bit rot silently corrupts old ones. Frames make both
//! failure modes *detectable*:
//!
//! ```text
//! len u32 (LE, payload bytes) | crc32 u32 (LE, over payload) | payload
//! ```
//!
//! A reader that hits a short header, a short payload, or a CRC mismatch
//! knows the frame — and everything after it — is unusable, and reports
//! [`ReqError::CorruptBytes`]. WAL recovery exploits exactly this: replay
//! stops at the first invalid frame, which is provably the write the crash
//! interrupted (see `req-service::wal`).
//!
//! [`FrameHeader::parse`] is the only code that reads a header's `len`
//! and `crc32` fields; every frame reader — [`read_frame`],
//! [`frame_payload`], [`try_frame`], the wire codec's blocking and
//! incremental deframers and the `TAIL` server's first-frame peek — goes
//! through it with its own payload bound: [`MAX_FRAME_PAYLOAD`] (1 GiB)
//! for files, 8 MiB on the wire. Payloads are [`crate::binary::Packable`]
//! values.
//!
//! The CRC is CRC-32/ISO-HDLC (the zlib/IEEE 802.3 polynomial, reflected,
//! init/xorout `0xFFFF_FFFF`) computed over the payload only; the length
//! prefix is implicitly covered because a wrong length misaligns the
//! payload window and fails the checksum with probability `1 − 2⁻³²`.
//!
//! Every frame user — the binary wire codec in both directions, WAL
//! append and recovery, snapshots, `TAIL` validation and follower replay
//! — checksums every byte it moves, so [`crc32`] has two kernels that
//! compute exactly the same CRC-32/ISO-HDLC values:
//!
//! * *Carry-less folding* (x86-64 only): four 128-bit lanes fold 64 bytes
//!   per step with `pclmulqdq`, then fold into one lane together with the
//!   remaining whole 16-byte blocks. The last 16 folded bytes and the
//!   sub-16-byte tail finish in the table step. The fold constants are
//!   `x^n mod P`, computed from the polynomial by a `const fn`. About
//!   17 GB/s at 8 KiB on a 2-vCPU x86-64 VM, against 1.7 GB/s for the
//!   table kernel (`cargo bench -p req-bench --bench serialization`).
//! * *Slicing-by-16*: sixteen 256-entry tables, built at compile time,
//!   where table `j` maps a byte to the CRC contribution it makes when `j`
//!   zero bytes follow it. One step folds the running CRC into the first
//!   four input bytes and XORs sixteen independent lookups, consuming 16
//!   bytes per step; the sub-16-byte remainder takes the classic
//!   byte-at-a-time loop over table 0.
//!
//! Dispatch: an input of 64 bytes or more (one folding step) runs the
//! carry-less kernel when `is_x86_feature_detected!` reports `pclmulqdq`
//! and `sse4.1`. Shorter inputs, CPUs without those features and other
//! targets run slicing-by-16, which is also the oracle the carry-less
//! kernel is tested against. The call into the carry-less kernel is this
//! crate's one `unsafe` block outside the arena. The on-disk (WAL,
//! snapshot) and wire formats do not depend on which kernel ran.
//!
//! [`write_frame`] is the one frame writer. It takes the payload's encoder
//! rather than finished bytes: the encoder appends the payload straight
//! after a placeholder header in the caller's buffer, and the header is
//! filled in afterwards, so no payload is built in a scratch buffer and
//! copied into its frame.

use bytes::{Buf, BufMut, BytesMut};

use crate::error::ReqError;

/// Frame header size: `len u32 + crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a single frame may carry (1 GiB). Guards the reader
/// against allocating an attacker-chosen length from a corrupt header.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Slicing-by-16 lookup tables for CRC-32/ISO-HDLC, built at compile
/// time: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[j][b]` is the CRC register after byte `b` and then `j`
/// zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC (the zlib `crc32`) of `data`.
///
/// Inputs of 64 bytes or more run the carry-less folding kernel when the
/// CPU has `pclmulqdq` and `sse4.1`; everything else runs the
/// slicing-by-16 table kernel. Both compute the same value.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(data) {
        return crc;
    }
    crc32_table(data)
}

/// The slicing-by-16 kernel: CRC-32/ISO-HDLC of `data`, 16 bytes per step.
fn crc32_table(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Run the reflected CRC register `crc` over `data` (no initial or final
/// XOR), 16 bytes per step, then the sub-16-byte tail byte by byte.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        // Byte `i` of the block is followed by `15 - i` more bytes.
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less folding kernel on `pclmulqdq`.
///
/// Four 128-bit lanes each hold 16 bytes of the message, with the
/// initial `0xFFFF_FFFF` XORed into the first four. One step folds each
/// lane 64 bytes forward, multiplying its low and high halves by
/// `x^n mod P` for the distance each half moves, and XORs in the next 64
/// bytes. The four lanes then fold into one, 16 bytes at a time, and so
/// do the remaining whole 16-byte blocks. Every fold keeps the message's
/// residue mod P, so the last 16 folded bytes followed by the tail (under
/// 16 bytes) run through the table step from a zero register to the same
/// CRC as the whole message: no Barrett reduction, no other constants.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_extract_epi64, _mm_set_epi64x, _mm_xor_si128,
    };

    use super::crc32_update;

    /// Shortest input the kernel takes: one 64-byte step of four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^n mod P` for the CRC-32 polynomial `P = 0x1_04C1_1DB7`, in
    /// normal (most significant bit first) form.
    pub(super) const fn xn_mod_p(n: u32) -> u32 {
        let mut r = 1u32;
        let mut i = 0;
        while i < n {
            r = if r & 0x8000_0000 != 0 {
                (r << 1) ^ 0x04C1_1DB7
            } else {
                r << 1
            };
            i += 1;
        }
        r
    }

    /// A fold constant: `x^n mod P`, bit-reflected to match the lanes and
    /// shifted left by one, because the carry-less product of two
    /// bit-reflected operands comes out one bit short of the reflected
    /// product.
    const fn fold_constant(n: u32) -> i64 {
        ((xn_mod_p(n).reverse_bits() as u64) << 1) as i64
    }

    /// Fold by 64 bytes: the constants for a lane's low half (n = 544)
    /// and high half (n = 480).
    pub(super) const FOLD_64: (i64, i64) = (fold_constant(544), fold_constant(480));
    /// Fold by 16 bytes: the constants for a lane's low half (n = 160)
    /// and high half (n = 96).
    pub(super) const FOLD_16: (i64, i64) = (fold_constant(160), fold_constant(96));

    /// CRC-32/ISO-HDLC of `data` by folding, or `None` when `data` is
    /// shorter than [`MIN_LEN`] or the CPU lacks `pclmulqdq` or `sse4.1`.
    #[allow(unsafe_code)]
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN
            || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        // SAFETY: `fold` enables exactly `pclmulqdq` and `sse4.1`, and the
        // CPU was just checked to support both.
        Some(unsafe { fold(data) })
    }

    /// 16 message bytes as one lane: byte 0 in the lowest bit.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Move `acc` forward by the distance `k` encodes, then add `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, k: (i64, i64), next: __m128i) -> __m128i {
        let k = _mm_set_epi64x(k.1, k.0);
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// CRC-32/ISO-HDLC of `data`, at least [`MIN_LEN`] bytes, by folding.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(data: &[u8]) -> u32 {
        let mut steps = data.chunks_exact(64);
        let first = steps.next().expect("at least 64 bytes");
        let mut lanes = [0, 1, 2, 3].map(|i| lane(&first[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, 0xFFFF_FFFF));
        for step in &mut steps {
            for (i, acc) in lanes.iter_mut().enumerate() {
                *acc = fold_into(*acc, FOLD_64, lane(&step[16 * i..]));
            }
        }
        let [mut acc, rest @ ..] = lanes;
        for next in rest {
            acc = fold_into(acc, FOLD_16, next);
        }
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            acc = fold_into(acc, FOLD_16, lane(block));
        }
        let lo = _mm_extract_epi64::<0>(acc) as u64;
        let hi = _mm_extract_epi64::<1>(acc) as u64;
        let mut folded = [0u8; 16];
        folded[..8].copy_from_slice(&lo.to_le_bytes());
        folded[8..].copy_from_slice(&hi.to_le_bytes());
        !crc32_update(crc32_update(0, &folded), blocks.remainder())
    }
}

/// Append one frame (`len | crc32 | payload`) to `out`, with `encode`
/// appending the payload in place: a zeroed header goes first, then
/// `encode` runs on `out`, then the header is filled in with the length
/// and CRC of what `encode` appended. Bytes already in `out` stay as they
/// are.
///
/// # Panics
/// If the payload exceeds [`MAX_FRAME_PAYLOAD`], checked once `encode`
/// has run. A frame beyond that limit (or beyond `u32::MAX`, which the
/// length prefix would silently truncate) would be *written* but
/// categorically rejected by [`read_frame`] — an acknowledged record that
/// can never be read back is strictly worse than a loud writer-side
/// failure, so callers must chunk their payloads below the limit (the
/// service layer bounds its batch sizes accordingly).
pub fn write_frame(out: &mut BytesMut, encode: impl FnOnce(&mut BytesMut)) {
    let start = out.len();
    out.put_slice(&[0; FRAME_HEADER_LEN]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD ({MAX_FRAME_PAYLOAD})",
        payload.len()
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// A frame's header: the payload length and the payload's stored CRC.
///
/// [`FrameHeader::parse`] is the one place a frame's `len` and `crc32`
/// fields are read. Every frame reader goes through it with its own
/// payload bound: [`MAX_FRAME_PAYLOAD`] for files, the wire codec's
/// smaller message bound for sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload bytes that follow the header.
    pub len: usize,
    crc: u32,
}

impl FrameHeader {
    /// Parse the header at the front of `input`: `Ok(None)` when fewer
    /// than [`FRAME_HEADER_LEN`] bytes are present, an error when the
    /// declared payload exceeds `max_payload` — checked before anything is
    /// allocated for it.
    pub fn parse(input: &[u8], max_payload: usize) -> Result<Option<Self>, ReqError> {
        let Some(head) = input.get(..FRAME_HEADER_LEN) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if len > max_payload {
            return Err(ReqError::CorruptBytes(format!(
                "frame claims {len} payload bytes (max {max_payload})"
            )));
        }
        Ok(Some(FrameHeader { len, crc }))
    }

    /// Bytes the whole frame occupies: header plus payload.
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER_LEN + self.len
    }

    /// Check `payload` against the stored checksum.
    pub fn verify(&self, payload: &[u8]) -> Result<(), ReqError> {
        let got = crc32(payload);
        if got != self.crc {
            return Err(ReqError::CorruptBytes(format!(
                "frame checksum mismatch: stored {:#010x}, computed {got:#010x}",
                self.crc
            )));
        }
        Ok(())
    }
}

/// Verify the frame at the front of `input` in place and borrow its
/// payload: `Ok(None)` while the frame is incomplete, an error for a
/// payload over `max_payload` or a checksum mismatch.
pub fn try_frame(input: &[u8], max_payload: usize) -> Result<Option<&[u8]>, ReqError> {
    let Some(header) = FrameHeader::parse(input, max_payload)? else {
        return Ok(None);
    };
    let Some(payload) = input.get(FRAME_HEADER_LEN..header.frame_len()) else {
        return Ok(None);
    };
    header.verify(payload)?;
    Ok(Some(payload))
}

/// Read one frame from the front of `input`, advancing past it and
/// returning the verified payload as a sub-slice of `input`.
///
/// Errors with [`ReqError::CorruptBytes`] on a short header, an
/// implausible length, a short payload, or a checksum mismatch — and
/// consumes nothing if the frame is invalid, so the caller can recover
/// the byte offset of the last *valid* frame (WAL truncation point).
pub fn read_frame<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], ReqError> {
    // Peek without consuming: on any failure the caller must still see
    // the stream positioned at the bad frame's start.
    let payload = frame_payload(input)?;
    input.advance(FRAME_HEADER_LEN + payload.len());
    Ok(payload)
}

/// Verify the frame at the front of `input` in place and borrow its
/// payload; the frame occupies `FRAME_HEADER_LEN + payload.len()` bytes.
/// Same checks and errors as [`read_frame`], without advancing.
pub fn frame_payload(input: &[u8]) -> Result<&[u8], ReqError> {
    try_frame(input, MAX_FRAME_PAYLOAD)?
        .ok_or_else(|| ReqError::CorruptBytes(format!("truncated frame: {} bytes", input.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One frame around `payload`.
    fn frame(payload: &[u8]) -> BytesMut {
        let mut out = BytesMut::new();
        write_frame(&mut out, |out| out.put_slice(payload));
        out
    }

    /// The byte-at-a-time kernel [`crc32`] ran before slicing-by-16, with
    /// its table rebuilt bit by bit: the oracle the fast kernel must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |crc, _| {
                    if crc & 1 == 1 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    }
                })
            })
            .collect();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Every CRC kernel this host runs on `data`, by name: the table
    /// kernel always, the carry-less kernel when the CPU has it and
    /// `data` is long enough for it, and the dispatching [`crc32`].
    fn kernels(data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![("slicing-by-16", crc32_table(data))];
        #[cfg(target_arch = "x86_64")]
        out.extend(clmul::crc32(data).map(|crc| ("carry-less", crc)));
        out.push(("dispatch", crc32(data)));
        out
    }

    fn assert_kernels_match(data: &[u8], what: &str) {
        let want = crc32_bytewise(data);
        for (name, got) in kernels(data) {
            assert_eq!(got, want, "{name} kernel, {what}");
        }
    }

    /// Pseudo-random bytes from a 64-bit LCG.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any length up to 4 KiB at any of the 16 start offsets inside a
        /// larger buffer, through every kernel: whole 64- and 16-byte
        /// steps, every tail length and every misalignment.
        #[test]
        fn crc32_matches_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 4_096 + 16),
            len in 0usize..=4_096,
            start in 0usize..16,
        ) {
            let data = &buf[start..start + len];
            let want = crc32_bytewise(data);
            for (name, got) in kernels(data) {
                prop_assert_eq!(got, want, "{} kernel, len {} at {}", name, len, start);
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_reference_on_every_short_shape() {
        // Exhaustive over 0..=320 bytes at every offset: 0–5 four-lane
        // steps, every count of 16-byte folds after them and every tail
        // length, plus every table-kernel block/remainder split.
        let buf: Vec<u8> = (0..336u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=320 {
                assert_kernels_match(&buf[start..start + len], &format!("len {len} at {start}"));
            }
        }
        assert_kernels_match(&[0xFF; 4_099], "4,099 × 0xFF");
        // The sizes a served request checksums: a 1,000-value ADDB
        // frame, one node's MERGE reply, and a long stream.
        assert_kernels_match(&noise(8_000, 1), "8,000 bytes");
        assert_kernels_match(&noise(75_169, 2), "75,169 bytes");
        assert_kernels_match(&noise(1 << 20, 3), "1 MiB");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_exponents_are_powers_of_x_mod_p() {
        use clmul::xn_mod_p;

        /// Carry-less product of two polynomials over GF(2).
        fn clmul_u32(a: u32, b: u32) -> u64 {
            (0..32)
                .filter(|i| b >> i & 1 == 1)
                .fold(0, |acc, i| acc ^ (u64::from(a) << i))
        }

        /// `a mod P`, one bit at a time from the top.
        fn reduce_mod_p(mut a: u64) -> u32 {
            const P: u64 = 0x1_04C1_1DB7;
            for bit in (32..64).rev() {
                if a >> bit & 1 == 1 {
                    a ^= P << (bit - 32);
                }
            }
            a as u32
        }

        assert_eq!(xn_mod_p(0), 1);
        assert_eq!(xn_mod_p(31), 0x8000_0000);
        assert_eq!(xn_mod_p(32), 0x04C1_1DB7);
        for n in [544, 480, 160, 96] {
            for a in [0, 1, 32, 33, n / 2, n - 64] {
                let product = clmul_u32(xn_mod_p(a), xn_mod_p(n - a));
                assert_eq!(
                    xn_mod_p(n),
                    reduce_mod_p(product),
                    "x^{n} as x^{a} · x^{}",
                    n - a
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_reflected_and_shifted() {
        assert_eq!(clmul::FOLD_64, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(clmul::FOLD_16, (0x1_7519_97D0, 0xCCAA_009E));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrips() {
        for payload in [&b""[..], b"x", b"hello frame", &[0xFFu8; 1024][..]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
            let mut input = &framed[..];
            let got = read_frame(&mut input).unwrap();
            assert_eq!(got, payload);
            assert!(!input.has_remaining());
        }
    }

    #[test]
    fn consecutive_frames_read_in_order() {
        let mut out = BytesMut::new();
        for payload in [&b"first"[..], b"", b"third"] {
            write_frame(&mut out, |out| out.put_slice(payload));
        }
        let mut input = &out[..];
        assert_eq!(read_frame(&mut input).unwrap(), b"first");
        assert_eq!(read_frame(&mut input).unwrap(), b"");
        assert_eq!(read_frame(&mut input).unwrap(), b"third");
        assert!(!input.has_remaining());
    }

    #[test]
    fn short_and_bitflipped_frames_are_rejected_without_consuming() {
        let framed = frame(b"payload bytes");

        // Every truncation fails, including a cut inside the header.
        for cut in 0..framed.len() {
            let mut input = &framed[..cut];
            let before = input.remaining();
            assert!(
                matches!(read_frame(&mut input), Err(ReqError::CorruptBytes(_))),
                "truncation at {cut} accepted"
            );
            assert_eq!(input.remaining(), before, "cut {cut} consumed bytes");
        }

        // Every single-bit flip anywhere in the frame fails.
        for byte in 0..framed.len() {
            let mut bad = framed.to_vec();
            bad[byte] ^= 0x10;
            let mut input = &bad[..];
            let res = read_frame(&mut input);
            // A flip in the length prefix may still "fail" as a short
            // frame rather than a checksum mismatch; either way it must
            // error and consume nothing.
            assert!(res.is_err(), "bit flip at byte {byte} accepted");
        }
    }

    #[test]
    fn header_parse_is_incremental_and_bounded_per_caller() {
        let framed = frame(b"payload");
        for cut in 0..FRAME_HEADER_LEN {
            assert_eq!(
                FrameHeader::parse(&framed[..cut], MAX_FRAME_PAYLOAD).unwrap(),
                None
            );
        }
        let header = FrameHeader::parse(&framed, MAX_FRAME_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(header.len, 7);
        assert_eq!(header.frame_len(), framed.len());
        // Each caller's bound applies before the payload is read.
        assert!(FrameHeader::parse(&framed, 6).is_err());
        for cut in 0..framed.len() {
            assert_eq!(try_frame(&framed[..cut], MAX_FRAME_PAYLOAD).unwrap(), None);
        }
        assert_eq!(
            try_frame(&framed, MAX_FRAME_PAYLOAD).unwrap(),
            Some(&b"payload"[..])
        );
        let mut bad = framed.to_vec();
        bad[FRAME_HEADER_LEN] ^= 1;
        assert!(try_frame(&bad, MAX_FRAME_PAYLOAD).is_err());
    }

    #[test]
    fn implausible_length_is_rejected_before_allocation() {
        let mut out = BytesMut::new();
        out.put_u32_le(u32::MAX);
        out.put_u32_le(0);
        out.put_slice(&[0u8; 16]);
        let mut input = &out[..];
        assert!(matches!(
            read_frame(&mut input),
            Err(ReqError::CorruptBytes(_))
        ));
    }

    #[test]
    fn write_frame_appends_after_what_the_buffer_holds() {
        let payload = |out: &mut BytesMut| {
            out.put_u8(7);
            out.put_slice(&[0xAB; 100]);
        };
        let mut alone = BytesMut::new();
        write_frame(&mut alone, payload);
        assert_eq!(alone.len(), FRAME_HEADER_LEN + 101);
        let held = [0xEE, 0x00, 0xFF, 0x42, 0x01];
        let mut out = BytesMut::new();
        out.put_slice(&held);
        write_frame(&mut out, payload);
        assert_eq!(&out[..held.len()], &held, "earlier bytes untouched");
        assert_eq!(&out[held.len()..], &alone[..], "the same frame appended");
        let mut input = &out[held.len()..];
        let got = read_frame(&mut input).unwrap();
        assert_eq!((got[0], got.len()), (7, 101));
    }
}
