//! Little-endian byte codec shared by every remote wire structure.
//!
//! The remote protocol is deliberately bincode-shaped — fixed-width
//! little-endian integers, length-prefixed strings and sequences — but
//! hand-rolled so the workspace stays dependency-free. Writers append to a
//! plain `Vec<u8>`; the [`ByteReader`] checks every read against the
//! remaining buffer and returns [`CodecError::Truncated`] instead of
//! panicking, so a torn or hostile payload can never take the process
//! down. (Frame-level checksums catch corruption before decoding; the
//! reader's bounds checks are the second line of defense.)

use std::fmt;

/// Decoding failure: the payload was shorter than the structure claims,
/// or a tag/length field held a value the schema does not allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A field held an out-of-schema value.
    Invalid {
        /// What was being decoded and why it was rejected.
        message: String,
    },
}

impl CodecError {
    /// Convenience constructor for [`CodecError::Invalid`].
    pub fn invalid(message: impl Into<String>) -> Self {
        CodecError::Invalid {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::Invalid { message } => write!(f, "invalid payload: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` count and then each value as a little-endian `u32` —
/// the shape [`ByteReader::u32s`] reads. The room for all of them is made
/// at once and the values are written into it in one pass.
pub fn put_u32s(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u32>) {
    let count = values.len();
    put_u32(out, count as u32);
    let start = out.len();
    out.resize(start + 4 * count, 0);
    let (slots, _) = out[start..].as_chunks_mut::<4>();
    for (slot, value) in slots.iter_mut().zip(values) {
        *slot = value.to_le_bytes();
    }
}

/// Appends an `f64` as its little-endian IEEE-754 bits.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a UTF-8 string as `u32` length + bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole payload has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(*head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::invalid("string is not UTF-8"))
    }

    /// Reads a `u32` record count and checks it against the bytes left:
    /// a count the rest of the payload cannot hold at `min_record_bytes`
    /// apiece is a lie, rejected as [`CodecError::Truncated`] *before* the
    /// caller sizes an allocation from it.
    pub fn count(&mut self, min_record_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        if count > self.remaining() / min_record_bytes.max(1) {
            return Err(CodecError::Truncated);
        }
        Ok(count)
    }

    /// Reads what [`put_u32s`] wrote: the count is checked against the
    /// bytes left (as [`count`](Self::count) does) before the values are
    /// taken as one slice and converted in one pass.
    pub fn u32s(&mut self) -> Result<impl ExactSizeIterator<Item = u32> + 'a, CodecError> {
        let n = self.count(4)?;
        let (values, _) = self.take(4 * n)?.as_chunks::<4>();
        Ok(values.iter().map(|&v| u32::from_le_bytes(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.25);
        put_str(&mut out, "héllo");
        put_u32s(&mut out, [0, 1, u32::MAX].into_iter());
        put_u32s(&mut out, std::iter::empty());
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u32s().unwrap().collect::<Vec<_>>(), [0, 1, u32::MAX]);
        assert_eq!(r.u32s().unwrap().len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_that_remain() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 12]);
        // 12 bytes hold three 4-byte records, not three 5-byte ones.
        assert_eq!(ByteReader::new(&out).count(4).unwrap(), 3);
        assert_eq!(
            ByteReader::new(&out).count(5).unwrap_err(),
            CodecError::Truncated
        );
        // A hostile count never becomes an allocation size.
        let mut lying = Vec::new();
        put_u32(&mut lying, u32::MAX);
        assert_eq!(
            ByteReader::new(&lying).count(1).unwrap_err(),
            CodecError::Truncated
        );
        // Nor a slice length: 12 bytes hold three values, not four.
        assert_eq!(ByteReader::new(&out).u32s().unwrap().len(), 3);
        out[..4].copy_from_slice(&4u32.to_le_bytes());
        assert!(ByteReader::new(&out).u32s().is_err());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut out = Vec::new();
        put_u32(&mut out, 10); // claims 10 bytes follow
        out.extend_from_slice(&[1, 2]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.str().unwrap_err(), CodecError::Truncated);
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u64().unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xff, 0xfe]);
        let mut r = ByteReader::new(&out);
        assert!(matches!(r.str(), Err(CodecError::Invalid { .. })));
    }

    /// A decoded string borrows the payload it was read from: nothing is
    /// copied, interned or leaked, whatever a peer sends.
    #[test]
    fn counters_round_trip_and_intern() {
        let mut out = Vec::new();
        put_str(&mut out, "map.records");
        put_str(&mut out, "");
        let mut r = ByteReader::new(&out);
        let name = r.str().unwrap();
        assert_eq!(name, "map.records");
        assert!(std::ptr::eq(name.as_ptr(), out[4..].as_ptr()));
        assert_eq!(r.str().unwrap(), "");
        assert!(r.is_empty());
    }

    /// The primitives the shard payloads are built from round-trip
    /// exactly: `u32` sequences in bulk and `f64` bits, the sign of zero
    /// included.
    #[test]
    fn job_stats_round_trip() {
        let values = [0.0, -0.0, 0.5, -1.25, f64::MAX, f64::MIN_POSITIVE];
        let ids = [7u32, 0, u32::MAX, 1 << 22];
        let mut out = Vec::new();
        for v in values {
            put_f64(&mut out, v);
        }
        put_u32s(&mut out, ids.into_iter());
        let mut r = ByteReader::new(&out);
        for v in values {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.u32s().unwrap().collect::<Vec<_>>(), ids);
        assert!(r.is_empty());
    }
}
