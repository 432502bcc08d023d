//! Manager-side worker client: backoff connect, deadlines, one
//! request/response call at a time.

use super::frame::{read_frame, write_frame, FrameError, HEADER_LEN};
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection and deadline policy for a [`WorkerClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout on an established stream — the per-task
    /// deadline: a worker that does not answer within this window counts
    /// as failed.
    pub io_timeout: Duration,
    /// First backoff delay between connect attempts; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: Duration,
    /// Total connect attempts before the worker counts as unreachable.
    pub connect_attempts: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            connect_attempts: 4,
        }
    }
}

impl ClientConfig {
    /// A configuration with tight timeouts for tests: failures are
    /// observed in tens of milliseconds instead of seconds.
    pub fn fast() -> Self {
        Self {
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            connect_attempts: 3,
        }
    }
}

/// The deterministic exponential backoff schedule between connect
/// attempts: `base, 2·base, 4·base, …`, capped at `cap`. Yields the delay
/// to sleep *after* each failed attempt (one fewer delay than attempts).
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    remaining: u32,
}

impl Backoff {
    /// Schedule for `attempts` total attempts.
    pub fn new(base: Duration, cap: Duration, attempts: u32) -> Self {
        Self {
            next: base,
            cap,
            remaining: attempts.saturating_sub(1),
        }
    }
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let delay = self.next.min(self.cap);
        self.next = self.next.saturating_mul(2);
        Some(delay)
    }
}

/// Failure of one remote call, as seen by the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The worker could not be reached within the backoff schedule.
    Connect {
        /// The worker address.
        addr: String,
        /// How many connect attempts were made.
        attempts: u32,
        /// The last connect error observed.
        last: String,
    },
    /// The transport failed mid-call (timeout, hangup, corruption).
    Frame(FrameError),
    /// The worker answered, but not in protocol.
    Protocol {
        /// What went wrong.
        message: String,
    },
}

impl RemoteError {
    /// True when the failure was the per-task deadline expiring.
    pub fn is_deadline(&self) -> bool {
        matches!(
            self,
            RemoteError::Frame(FrameError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut))
        )
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Connect {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "worker {addr} unreachable after {attempts} attempts: {last}"
            ),
            RemoteError::Frame(e)
                if matches!(
                    e,
                    FrameError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)
                ) =>
            {
                write!(f, "worker missed the response deadline: {e}")
            }
            RemoteError::Frame(e) => write!(f, "transport failed: {e}"),
            RemoteError::Protocol { message } => write!(f, "protocol violation: {message}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<FrameError> for RemoteError {
    fn from(e: FrameError) -> Self {
        RemoteError::Frame(e)
    }
}

/// A connection to one worker.
///
/// The stream is established lazily (with exponential backoff) on the
/// first call and re-established after any failure — a `WorkerClient`
/// held across a worker restart heals by itself. One call is one
/// request frame followed by one response frame.
#[derive(Debug)]
pub struct WorkerClient {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    bytes_sent: u64,
    bytes_received: u64,
}

impl WorkerClient {
    /// Creates a client for `addr` (`host:port`). No connection is made
    /// until the first call.
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Self {
        Self {
            addr: addr.into(),
            config,
            stream: None,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// The worker address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Total frame bytes written to this worker (headers included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total frame bytes read from this worker (headers included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    fn connect(&self) -> Result<TcpStream, RemoteError> {
        let mut backoff = Backoff::new(
            self.config.backoff_base,
            self.config.backoff_cap,
            self.config.connect_attempts,
        );
        let mut attempts = 0;
        loop {
            attempts += 1;
            let error = match self.try_connect_once() {
                Ok(stream) => return Ok(stream),
                Err(e) => e,
            };
            match backoff.next() {
                Some(delay) => std::thread::sleep(delay),
                None => {
                    return Err(RemoteError::Connect {
                        addr: self.addr.clone(),
                        attempts,
                        last: error,
                    })
                }
            }
        }
    }

    fn try_connect_once(&self) -> Result<TcpStream, String> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve: {e}"))?;
        let mut last = format!("no addresses for {}", self.addr);
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream
                        .set_read_timeout(Some(self.config.io_timeout))
                        .map_err(|e| e.to_string())?;
                    stream
                        .set_write_timeout(Some(self.config.io_timeout))
                        .map_err(|e| e.to_string())?;
                    return Ok(stream);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(last)
    }

    /// Sends one request frame and reads the response frame.
    ///
    /// On any failure the stream is dropped, so the next call starts from
    /// a fresh connection.
    pub fn call(&mut self, opcode: u16, payload: &[u8]) -> Result<(u16, Vec<u8>), RemoteError> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => self.connect()?,
        };
        let stream = self.stream.insert(stream);
        let result = (|| {
            write_frame(stream, opcode, payload)?;
            read_frame(stream)
        })();
        match result {
            Ok((op, response)) => {
                self.bytes_sent += (HEADER_LEN + payload.len()) as u64;
                self.bytes_received += (HEADER_LEN + response.len()) as u64;
                Ok((op, response))
            }
            Err(e) => {
                self.stream = None;
                Err(e.into())
            }
        }
    }

    /// Drops the current connection (the next call reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
    }

    /// One liveness probe: sends [`OP_PING`](super::OP_PING) with `token`
    /// and demands an [`OP_PONG`](super::OP_PONG) echoing it back. Any
    /// transport failure, wrong opcode or wrong echo is an error — the
    /// health-probe scheduler treats all three as "not yet recovered".
    pub fn ping(&mut self, token: &[u8]) -> Result<(), RemoteError> {
        use super::frame::{OP_PING, OP_PONG};
        match self.call(OP_PING, token)? {
            (OP_PONG, echo) if echo == token => Ok(()),
            (OP_PONG, _) => Err(RemoteError::Protocol {
                message: "ping echo mismatch".to_owned(),
            }),
            (op, _) => Err(RemoteError::Protocol {
                message: format!("ping answered with opcode {op}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let delays: Vec<_> =
            Backoff::new(Duration::from_millis(10), Duration::from_millis(35), 5).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(35),
                Duration::from_millis(35),
            ]
        );
        // One attempt means zero sleeps.
        assert_eq!(
            Backoff::new(Duration::from_millis(10), Duration::from_millis(35), 1).count(),
            0
        );
    }

    #[test]
    fn connect_to_dead_port_exhausts_backoff() {
        // Bind a port, then drop the listener so the port is dead.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut client = WorkerClient::new(addr.clone(), ClientConfig::fast());
        match client.call(super::super::frame::OP_PING, b"") {
            Err(RemoteError::Connect {
                addr: a, attempts, ..
            }) => {
                assert_eq!(a, addr);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected Connect error, got {other:?}"),
        }
        assert_eq!(client.bytes_sent(), 0);
    }

    #[test]
    fn unresolvable_address_is_a_connect_error() {
        let mut client = WorkerClient::new("not an address", ClientConfig::fast());
        assert!(matches!(
            client.call(super::super::frame::OP_PING, b""),
            Err(RemoteError::Connect { .. })
        ));
    }

    #[test]
    fn deadline_detection() {
        assert!(RemoteError::Frame(FrameError::Io(ErrorKind::TimedOut)).is_deadline());
        assert!(RemoteError::Frame(FrameError::Io(ErrorKind::WouldBlock)).is_deadline());
        assert!(!RemoteError::Frame(FrameError::Truncated).is_deadline());
    }
}
