//! Length-delimited, checksummed framing for the worker TCP protocol.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! ┌────────────┬────────────┬───────────┬──────────┬──────────────┬─────────┐
//! │ magic: u32 │ opcode: u16│ flags: u16│ len: u32 │ checksum: u64│ payload │
//! └────────────┴────────────┴───────────┴──────────┴──────────────┴─────────┘
//!     "SPQ8"      dispatch       0        payload     WordHasher     len
//!                                          bytes      over payload    bytes
//! ```
//!
//! All header fields are little-endian. The checksum ([`WordHasher`],
//! FNV-style steps over 64-bit words in four independent lanes) lets the
//! receiver reject a corrupted payload *before* any structural decoding
//! happens, and the explicit length (capped at [`MAX_FRAME_LEN`]) bounds
//! the allocation a frame can demand. A short read anywhere — header or
//! payload — surfaces as [`FrameError::Truncated`], which is how a peer
//! hanging up mid-frame is observed. [`write_frame`] sends the header and
//! the payload by vectored writes from the caller's buffers, copying no
//! payload byte; [`read_frame`] reads the payload once into the buffer it
//! returns and hashes it there.

use std::io::{ErrorKind, IoSlice, Read, Write};

/// Frame magic: `"SPQ8"` as a little-endian `u32`. It was `"SPQF"` while
/// the checksum was FNV-1a a byte at a time, `"SPQ2"` while a shard query
/// carried algorithm and pruning tags and a shard result a plan-cache
/// byte, `"SPQ3"` while a shard query carried a trace byte, a shard
/// result a job's statistics and a provision the job's executor settings,
/// `"SPQ4"` while a shard held a slice of the data objects and every
/// feature, and a provision carried its data slice with explicit indexes,
/// `"SPQ5"` while a feature slice crossed the wire as keyword lists
/// rather than as its keyword index's columns, `"SPQ6"` while those
/// columns numbered features in store order and carried one length per
/// feature rather than a table of length runs, and `"SPQ7"` while
/// [`WordHasher`] ran one serial chain over every word rather than four
/// lanes over 32-byte blocks (checksums and fingerprints of 32 bytes or
/// more differ).
/// A peer from any of them fails every frame as [`FrameError::BadMagic`],
/// not as a checksum mismatch or a mis-parsed payload.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SPQ8");

/// Upper bound on a frame payload (64 MiB). A length field above this is
/// treated as corruption, not as a real allocation request.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// Liveness probe; the payload is echoed back in the [`OP_PONG`] reply.
pub const OP_PING: u16 = 1;
/// Reply to [`OP_PING`].
pub const OP_PONG: u16 = 2;
// 3 and 4 carried whole map/reduce jobs; they are retired and stay
// unassigned, so a peer from before the removal gets "unknown opcode".
/// Typed error reply to any request.
pub const OP_ERROR: u16 = 5;
/// Installs a query shard: the fingerprint of the feature slice
/// ([`OP_FEATURES`]) the shard is evaluated against, then the data-space
/// bounds and the data objects it ranks.
pub const OP_PROVISION: u16 = 6;
/// Acknowledges [`OP_PROVISION`].
pub const OP_PROVISION_OK: u16 = 7;
/// Runs one SPQ query against a provisioned shard.
pub const OP_SHARD_QUERY: u16 = 8;
/// Shard query reply: the shard's local top-k as 12-byte wire records.
pub const OP_SHARD_RESULT: u16 = 9;
/// Installs a [`FaultPlan`](super::FaultPlan) on the worker.
pub const OP_SET_FAULT: u16 = 10;
/// Acknowledges [`OP_SET_FAULT`] (never subject to fault injection).
pub const OP_FAULT_OK: u16 = 11;
/// Asks the worker to stop serving and exit its accept loop.
pub const OP_SHUTDOWN: u16 = 12;
/// Asks a shard host which shards it currently serves (empty payload).
/// A manager re-admitting a recovered worker uses the answer to decide
/// whether the worker's copies are still warm or must be re-provisioned.
pub const OP_SHARD_STATUS: u16 = 13;
/// Reply to [`OP_SHARD_STATUS`]: the hosted shard ids.
pub const OP_SHARD_STATUS_OK: u16 = 14;
/// One bounded chunk of a feature slice's kernel state — runs of its
/// keyword index's columns and of its locations — named by the slice's
/// fingerprint and carrying its chunk index and the chunk total; the
/// chunks of a slice arrive in order, before the first install of a shard
/// over it.
pub const OP_FEATURES: u16 = 15;
/// Acknowledges one [`OP_FEATURES`] chunk.
pub const OP_FEATURES_OK: u16 = 16;

/// Transport-level failure while reading or writing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header did not start with [`MAGIC`] — the peer is not speaking
    /// this protocol, or the stream lost sync.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: u32,
    },
    /// The length field — or, on the write side, the payload handed to
    /// [`write_frame`] — exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload did not match its checksum.
    Corrupt {
        /// Checksum the header promised.
        expected: u64,
        /// Checksum of the bytes actually received.
        found: u64,
    },
    /// The stream ended (peer hung up) before the frame was complete.
    Truncated,
    /// Any other I/O failure, by kind (timeouts surface here).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (want {MAGIC:#010x})")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Corrupt { expected, found } => write!(
                f,
                "frame payload corrupt: checksum {found:#018x}, header says {expected:#018x}"
            ),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(kind) => write!(f, "frame i/o error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io(kind),
        }
    }
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a's 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Independent word chains in [`WordHasher`]: word `i` of every block
/// goes to lane `i`.
const LANES: usize = 4;
/// Bytes in one [`WordHasher`] block: one 64-bit word per lane.
const BLOCK_BYTES: usize = 8 * LANES;

/// The frame checksum and the feature-set fingerprint: FNV-style steps
/// over 64-bit little-endian words in four independent lanes, fed in any
/// number of pieces.
///
/// Each step is `hash = ((hash ^ word) · prime) <<< 29`. The input is
/// cut into 32-byte blocks, and word `i` of every block is one step of
/// lane `i`, so four multiply chains run side by side instead of one.
/// [`finish`](Self::finish) folds the four lanes, in order, as four steps
/// of one chain from the FNV offset basis (no fold when no whole block
/// was fed), then takes the whole words after the last block one step
/// each and the bytes after the last whole word one FNV-1a step each. An
/// input shorter than one block is thus one serial chain over its words,
/// as the hasher was before it had lanes. A partial block is carried
/// across [`update`](Self::update) calls, so the result is a function of
/// the bytes alone, however they were split. Every step is a bijection
/// of the state it updates and, for a fixed state, of its word, so a
/// change confined to one word (or one tail byte) always changes the
/// result. The rotation is there because a multiply only carries upward:
/// without it a word's top bit would only ever reach the lane's top bit,
/// and flipping it in two words would cancel out. An integrity check
/// against accidents, not an authentication code.
#[derive(Debug, Clone)]
pub struct WordHasher {
    lanes: [u64; LANES],
    /// True once a whole block has been stepped into the lanes.
    folds: bool,
    /// The bytes of a block not yet complete: `pending[..pending_len]`.
    pending: [u8; BLOCK_BYTES],
    pending_len: usize,
}

impl Default for WordHasher {
    fn default() -> Self {
        Self {
            lanes: [FNV_OFFSET_BASIS; LANES],
            folds: false,
            pending: [0; BLOCK_BYTES],
            pending_len: 0,
        }
    }
}

impl WordHasher {
    /// Feeds `bytes`, in order after everything fed so far.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = bytes.len().min(BLOCK_BYTES - self.pending_len);
            let (head, rest) = bytes.split_at(take);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(head);
            self.pending_len += take;
            bytes = rest;
            if self.pending_len < BLOCK_BYTES {
                return;
            }
            self.lanes = block_step(self.lanes, &self.pending);
            self.folds = true;
        }
        let (blocks, rest) = bytes.as_chunks::<BLOCK_BYTES>();
        self.folds |= !blocks.is_empty();
        self.lanes = blocks.iter().fold(self.lanes, block_step);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        let folded = if self.folds {
            self.lanes.iter().fold(FNV_OFFSET_BASIS, |hash, lane| {
                word_step(hash, lane.to_le_bytes())
            })
        } else {
            FNV_OFFSET_BASIS
        };
        let (words, tail) = self.pending[..self.pending_len].as_chunks::<8>();
        let hash = words
            .iter()
            .fold(folded, |hash, &word| word_step(hash, word));
        tail.iter()
            .fold(hash, |hash, &b| (hash ^ b as u64).wrapping_mul(FNV_PRIME))
    }
}

#[inline]
fn word_step(hash: u64, word: [u8; 8]) -> u64 {
    (hash ^ u64::from_le_bytes(word))
        .wrapping_mul(FNV_PRIME)
        .rotate_left(29)
}

/// One block: word `i` is one step of lane `i`.
#[inline]
fn block_step(lanes: [u64; LANES], block: &[u8; BLOCK_BYTES]) -> [u64; LANES] {
    let (words, _) = block.as_chunks::<8>();
    std::array::from_fn(|i| word_step(lanes[i], words[i]))
}

/// [`WordHasher`] over one buffer.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hasher = WordHasher::default();
    hasher.update(bytes);
    hasher.finish()
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, opcode: u16, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_with(w, opcode, &[payload], false)
}

/// Writes one frame whose payload is the concatenation of `parts`, and,
/// when `corrupt` is set, corrupts it *after* the checksum is computed —
/// the fault-injection seam behind
/// [`FaultPlan::corrupt_response`](super::FaultPlan::corrupt_response).
///
/// The header and the parts go out by vectored writes straight from the
/// caller's buffers: no payload byte is copied on the way, except on the
/// corrupting path, which flips a byte of a copy.
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    opcode: u16,
    parts: &[&[u8]],
    corrupt: bool,
) -> Result<(), FrameError> {
    // A payload past `u32` saturates: it is over the cap either way.
    let len = u32::try_from(parts.iter().map(|p| p.len()).sum::<usize>()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let mut hasher = WordHasher::default();
    for part in parts {
        hasher.update(part);
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&opcode.to_le_bytes());
    // Bytes 6..8 are the flags, reserved and zero.
    header[8..12].copy_from_slice(&len.to_le_bytes());
    header[12..20].copy_from_slice(&hasher.finish().to_le_bytes());
    let corrupted;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(1 + parts.len());
    if corrupt {
        // Flip every bit of the payload's first byte; the header (and its
        // checksum field) still describe the original bytes. An empty
        // payload has no byte to flip; lie in the checksum instead so the
        // receiver still observes corruption.
        let mut payload = parts.concat();
        match payload.first_mut() {
            Some(first) => *first = !*first,
            None => header[12..20].copy_from_slice(&checksum(&[0xab]).to_le_bytes()),
        }
        corrupted = payload;
        slices.extend([IoSlice::new(&header), IoSlice::new(&corrupted)]);
    } else {
        slices.push(IoSlice::new(&header));
        slices.extend(parts.iter().map(|part| IoSlice::new(part)));
    }
    let mut unwritten = &mut slices[..];
    while !unwritten.is_empty() {
        match w.write_vectored(unwritten) {
            Ok(0) => return Err(FrameError::Io(ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying magic, length cap and checksum.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let [m0, m1, m2, m3, o0, o1, _, _, l0, l1, l2, l3, c0, c1, c2, c3, c4, c5, c6, c7] = header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let opcode = u16::from_le_bytes([o0, o1]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let expected = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = checksum(&payload);
    if found != expected {
        return Err(FrameError::Corrupt { expected, found });
    }
    Ok((opcode, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello").unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_PING);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SHUTDOWN, &[]).unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_SHUTDOWN);
        assert!(payload.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn oversize_payload_is_a_typed_write_error() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, OP_PING, &payload),
            Err(FrameError::Oversize {
                len: MAX_FRAME_LEN + 1
            })
        );
        // Nothing reached the stream: the peer never sees a torn frame.
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello world").unwrap();
        buf.truncate(buf.len() - 3); // torn payload
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Truncated)
        );
        // Torn header too.
        assert_eq!(
            read_frame(&mut Cursor::new(&buf[..7])),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, &[b"pay", b"load"], true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
        // Even an empty payload can be corrupted (via the checksum field).
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, &[], true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_frame_with_the_old_magic_is_bad_magic() {
        for old in [
            *b"SPQF", *b"SPQ2", *b"SPQ3", *b"SPQ4", *b"SPQ5", *b"SPQ6", *b"SPQ7",
        ]
        .map(u32::from_le_bytes)
        {
            let mut buf = Vec::new();
            write_frame(&mut buf, OP_PING, b"x").unwrap();
            buf[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                read_frame(&mut Cursor::new(&buf)),
                Err(FrameError::BadMagic { found: old })
            );
        }
    }

    #[test]
    fn fnv_vectors() {
        // Under one word the checksum is plain FNV-1a: the published
        // vectors hold.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
        // Past one word it is the word hasher's own, pinned: it is on the
        // wire.
        assert_eq!(checksum(b"spatial preference"), 0xc5a2_f75f_c4d8_e0f9);
    }

    #[test]
    fn every_split_folds_to_the_one_shot_hash() {
        // Two blocks, a word and a three-byte tail: splits land inside
        // and on the edges of blocks, words and the tail.
        let bytes: Vec<u8> = (0..75u8).map(|i| i.wrapping_mul(151)).collect();
        let whole = checksum(&bytes);
        for i in 0..=bytes.len() {
            for j in i..=bytes.len() {
                let mut hasher = WordHasher::default();
                for piece in [&bytes[..i], &bytes[i..j], &bytes[j..]] {
                    hasher.update(piece);
                }
                assert_eq!(hasher.finish(), whole, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn any_change_to_one_byte_changes_the_checksum() {
        // 77 bytes: two blocks (every lane stepped twice), a word after
        // them and a five-byte tail.
        let bytes: Vec<u8> = (0..77u8).collect();
        let whole = checksum(&bytes);
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                let mut changed = bytes.clone();
                changed[at] ^= mask;
                assert_ne!(checksum(&changed), whole, "byte {at}, mask {mask:#04x}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        // Without the rotation the multiply never carries a word's top
        // bit anywhere but the lane's top bit, and two flips cancel.
        // Words 0 and 4 both go to lane 0; words 0 and 2 of an input
        // under one block go to the one serial chain.
        for (len, a, b) in [(64, 7, 39), (24, 7, 23)] {
            let bytes = vec![0u8; len];
            let mut changed = bytes.clone();
            changed[a] ^= 0x80;
            changed[b] ^= 0x80;
            assert_ne!(checksum(&changed), checksum(&bytes), "{len} bytes");
        }
    }

    #[test]
    fn top_bit_flips_in_words_of_different_lanes_do_not_cancel() {
        // The fold is one chain over the lanes in order, not an xor of
        // them: a change in one lane is not undone by the same change in
        // another, nor by swapping two lanes' words.
        let bytes = [0u8; 64];
        for (a, b) in [(0, 1), (0, 3), (1, 2), (2, 7), (3, 4)] {
            let mut changed = bytes;
            changed[8 * a + 7] ^= 0x80;
            changed[8 * b + 7] ^= 0x80;
            assert_ne!(checksum(&changed), checksum(&bytes), "words {a} and {b}");
        }
        let mut swapped: Vec<u8> = (0..32u8).collect();
        let whole = checksum(&swapped);
        swapped[..16].rotate_left(8);
        assert_ne!(checksum(&swapped), whole);
    }

    /// A writer that takes at most `max` bytes per call and fails the
    /// first call with `Interrupted` when `interrupt` is set.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        interrupt: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.max);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_survives_short_and_interrupted_writes() {
        let payload: Vec<u8> = (0..3 << 20).map(|i: u32| (i * 7 + i / 251) as u8).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, OP_FEATURES, &payload).unwrap();
        for (max, interrupt) in [(7, false), (usize::MAX, true), (7, true)] {
            let mut trickle = Trickle {
                out: Vec::new(),
                max,
                interrupt,
            };
            write_frame(&mut trickle, OP_FEATURES, &payload).unwrap();
            assert!(trickle.out == whole, "max {max}, interrupt {interrupt}");
            let (op, got) = read_frame(&mut Cursor::new(&trickle.out)).unwrap();
            assert_eq!(op, OP_FEATURES);
            assert!(got == payload);
        }
        // A payload in parts is the frame of their concatenation.
        let mut parts = Trickle {
            out: Vec::new(),
            max: 7,
            interrupt: true,
        };
        let (head, body) = payload.split_at(12);
        write_frame_with(&mut parts, OP_FEATURES, &[head, &[], body], false).unwrap();
        assert!(parts.out == whole);
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        let mut stuck = Trickle {
            out: Vec::new(),
            max: 0,
            interrupt: false,
        };
        assert_eq!(
            write_frame(&mut stuck, OP_PING, b"x"),
            Err(FrameError::Io(ErrorKind::WriteZero))
        );
    }
}
