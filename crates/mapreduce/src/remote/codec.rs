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

use crate::counters::Counters;
use crate::stats::{JobStats, TaskStats};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

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

/// Appends a `u32` count and then each value as a little-endian `u32`, in
/// one extend — the shape [`ByteReader::u32s`] reads.
pub fn put_u32s(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u32>) {
    put_u32(out, values.len() as u32);
    out.extend(values.flat_map(u32::to_le_bytes));
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

/// Appends a raw byte slice as `u32` length + bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
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

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
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

/// Interns a decoded counter name so it satisfies the `&'static str`
/// contract of [`Counters`].
///
/// Counter cardinality is tiny (a few dozen distinct names per process),
/// so each distinct name is leaked exactly once and served from a global
/// registry on every later decode.
pub fn intern_counter_name(name: &str) -> &'static str {
    static REGISTRY: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut registry = REGISTRY.get_or_init(|| Mutex::new(HashSet::new())).lock();
    match registry.get(name) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            registry.insert(leaked);
            leaked
        }
    }
}

/// Encodes a counter set as `(name, value)` pairs in name order.
pub fn encode_counters(counters: &Counters, out: &mut Vec<u8>) {
    let pairs: Vec<_> = counters.iter().collect();
    put_u32(out, pairs.len() as u32);
    for (name, v) in pairs {
        put_str(out, name);
        put_u64(out, v);
    }
}

/// Encoded size of a counter with an empty name — the floor a shipped
/// counter count is held to.
const MIN_COUNTER_BYTES: usize = 4 + 8;
/// Encoded size of one [`TaskStats`] record.
const TASK_STATS_BYTES: usize = 8 + 8 + 8;

/// Decodes a counter set, interning each name. The shipped count is
/// checked against the bytes that remain before anything loops over it.
pub fn decode_counters(r: &mut ByteReader<'_>) -> Result<Counters, CodecError> {
    let n = r.count(MIN_COUNTER_BYTES)?;
    let mut counters = Counters::new();
    for _ in 0..n {
        let name = intern_counter_name(r.str()?);
        let v = r.u64()?;
        counters.add(name, v);
    }
    Ok(counters)
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_micros() as u64);
}

fn read_duration(r: &mut ByteReader<'_>) -> Result<Duration, CodecError> {
    Ok(Duration::from_micros(r.u64()?))
}

fn encode_task_stats(stats: &TaskStats, out: &mut Vec<u8>) {
    put_duration(out, stats.duration);
    put_u64(out, stats.records_in);
    put_u64(out, stats.records_out);
}

fn decode_task_stats(r: &mut ByteReader<'_>) -> Result<TaskStats, CodecError> {
    Ok(TaskStats {
        duration: read_duration(r)?,
        records_in: r.u64()?,
        records_out: r.u64()?,
    })
}

/// Encodes full job statistics (durations become microseconds).
pub fn encode_job_stats(stats: &JobStats, out: &mut Vec<u8>) {
    put_u32(out, stats.map_tasks.len() as u32);
    for t in &stats.map_tasks {
        encode_task_stats(t, out);
    }
    put_u32(out, stats.reduce_tasks.len() as u32);
    for t in &stats.reduce_tasks {
        encode_task_stats(t, out);
    }
    put_duration(out, stats.map_wall);
    put_duration(out, stats.shuffle_wall);
    put_duration(out, stats.reduce_wall);
    put_duration(out, stats.total_wall);
    put_u64(out, stats.shuffle_records);
    encode_counters(&stats.counters, out);
}

/// Decodes job statistics produced by [`encode_job_stats`]. Each shipped
/// task count is checked against the bytes that remain before it sizes an
/// allocation — the payload comes off a worker's socket.
pub fn decode_job_stats(r: &mut ByteReader<'_>) -> Result<JobStats, CodecError> {
    let n_map = r.count(TASK_STATS_BYTES)?;
    let mut map_tasks = Vec::with_capacity(n_map);
    for _ in 0..n_map {
        map_tasks.push(decode_task_stats(r)?);
    }
    let n_red = r.count(TASK_STATS_BYTES)?;
    let mut reduce_tasks = Vec::with_capacity(n_red);
    for _ in 0..n_red {
        reduce_tasks.push(decode_task_stats(r)?);
    }
    Ok(JobStats {
        map_tasks,
        reduce_tasks,
        map_wall: read_duration(r)?,
        shuffle_wall: read_duration(r)?,
        reduce_wall: read_duration(r)?,
        total_wall: read_duration(r)?,
        shuffle_records: r.u64()?,
        counters: decode_counters(r)?,
    })
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
        put_bytes(&mut out, &[1, 2, 3]);
        put_u32s(&mut out, [0, 1, u32::MAX].into_iter());
        put_u32s(&mut out, std::iter::empty());
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
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
        assert_eq!(r.bytes().unwrap_err(), CodecError::Truncated);
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

    #[test]
    fn counters_round_trip_and_intern() {
        let mut c = Counters::new();
        c.add("map.records", 42);
        c.add("reduce.groups", 7);
        let mut out = Vec::new();
        encode_counters(&c, &mut out);
        let decoded = decode_counters(&mut ByteReader::new(&out)).unwrap();
        assert_eq!(decoded, c);
        // Interning returns pointer-identical names across decodes.
        let a = intern_counter_name("spq.some_counter");
        let b = intern_counter_name("spq.some_counter");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn job_stats_round_trip() {
        let mut counters = Counters::new();
        counters.add("x", 3);
        let stats = JobStats {
            map_tasks: vec![TaskStats {
                duration: Duration::from_micros(12),
                records_in: 4,
                records_out: 9,
            }],
            reduce_tasks: vec![TaskStats::default(), TaskStats::default()],
            map_wall: Duration::from_micros(100),
            shuffle_wall: Duration::from_micros(5),
            reduce_wall: Duration::from_micros(50),
            total_wall: Duration::from_micros(160),
            shuffle_records: 9,
            counters,
        };
        let mut out = Vec::new();
        encode_job_stats(&stats, &mut out);
        let got = decode_job_stats(&mut ByteReader::new(&out)).unwrap();
        assert_eq!(got.map_tasks, stats.map_tasks);
        assert_eq!(got.reduce_tasks, stats.reduce_tasks);
        assert_eq!(got.total_wall, stats.total_wall);
        assert_eq!(got.shuffle_records, 9);
        assert_eq!(got.counters, stats.counters);
    }
}
