//! The worker side of the remote protocol: a TCP server that dispatches
//! framed requests to pluggable handlers.
//!
//! A [`WorkerServer`] owns a listener and serves each connection on its
//! own thread. Protocol plumbing — ping, fault installation, shutdown,
//! unknown opcodes — is built in; domain opcodes (jobs, shard queries)
//! are answered by the [`FrameHandler`] chain the server was built with.
//! The [`FaultPlan`] seam sits on the *response* path, so every injected
//! failure mode is downstream of a fully processed request — exactly
//! where real crashes hurt.

use super::client::RemoteError;
use super::codec::{put_str, ByteReader};
use super::fault::{next_action, FaultAction, FaultPlan};
use super::frame::{
    read_frame, write_frame, write_frame_with, FrameError, OP_ERROR, OP_FAULT_OK, OP_PING, OP_PONG,
    OP_SET_FAULT, OP_SHUTDOWN,
};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Answers one request frame.
///
/// Handlers are chained: the first handler that returns `Ok(Some(_))`
/// produces the response. `Ok(None)` means "not my opcode, ask the next
/// handler"; `Err` becomes a typed [`OP_ERROR`] reply carrying the
/// message.
pub trait FrameHandler: Send + Sync {
    /// Handles `opcode` with `payload`, returning the response frame.
    fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String>;
}

/// Exit code a real worker process dies with when a fatal
/// [`FaultPlan::kill_after_responses`] fault fires.
pub const FAULT_EXIT_CODE: i32 = 86;

/// Interval at which blocked server loops wake to check shutdown flags.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Consecutive empty polls (about [`POLL_INTERVAL`] each) a peer may stall
/// in the middle of a frame before the connection is given up on.
const MAX_STALLED_POLLS: u32 = 2_000;

struct ServerState {
    handlers: Vec<Box<dyn FrameHandler>>,
    plan: Mutex<FaultPlan>,
    responses: AtomicU32,
    /// Set by shutdown requests and by non-fatal kill faults.
    stopped: AtomicBool,
    /// Whether a kill fault terminates the process (real worker binary)
    /// or just this server (in-process test worker).
    fatal_faults: bool,
}

impl ServerState {
    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// A running worker server. Construct with [`WorkerServer::bind`].
pub struct WorkerServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Encodes the payload of an [`OP_ERROR`] reply.
pub fn encode_error_payload(message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(message.len() + 5);
    put_str(&mut out, message);
    out
}

/// Decodes an [`OP_ERROR`] payload back into its message.
pub fn decode_error_payload(payload: &[u8]) -> String {
    ByteReader::new(payload)
        .str()
        .map(str::to_owned)
        .unwrap_or_else(|_| "malformed error payload".to_owned())
}

impl WorkerServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// on background threads.
    ///
    /// `fatal_faults` selects what a kill fault does: `true` exits the
    /// process with [`FAULT_EXIT_CODE`] (the real `spq-worker` binary),
    /// `false` stops this server only (in-process workers in tests).
    pub fn bind(
        addr: &str,
        handlers: Vec<Box<dyn FrameHandler>>,
        fatal_faults: bool,
    ) -> std::io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState {
            handlers,
            plan: Mutex::new(FaultPlan::default()),
            responses: AtomicU32::new(0),
            stopped: AtomicBool::new(false),
            fatal_faults,
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_state));
        Ok(WorkerServer {
            addr: local,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once the server has stopped (shutdown request or kill fault).
    pub fn is_stopped(&self) -> bool {
        self.state.is_stopped()
    }

    /// Stops accepting and serving, then joins the accept loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops (shutdown frame or kill fault).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.state.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for WorkerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerServer")
            .field("addr", &self.addr)
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        if state.is_stopped() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_state = Arc::clone(&state);
                std::thread::spawn(move || serve_connection(stream, conn_state));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Dropping the listener here closes the port: late connects are
    // refused, which is exactly how a dead worker looks to the manager.
}

/// The connection as [`read_frame`] sees it: the poll timeout applies
/// only *between* frames. While no byte of the next frame has arrived a
/// timed-out read surfaces as such, so the serve loop can check for
/// shutdown and ask again — nothing was consumed. Once a frame's first
/// byte is in, timeouts are read through (a large frame routinely stalls
/// longer than one poll on a busy host, and abandoning it mid-read would
/// desync the stream); only a stopped server or [`MAX_STALLED_POLLS`]
/// silent polls in a row end the frame, as a truncation.
struct FrameReader<'a> {
    stream: &'a mut TcpStream,
    state: &'a ServerState,
    in_frame: bool,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut stalled = 0;
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.in_frame |= n > 0;
                    return Ok(n);
                }
                Err(e)
                    if self.in_frame
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    stalled += 1;
                    if self.state.is_stopped() || stalled > MAX_STALLED_POLLS {
                        return Err(ErrorKind::UnexpectedEof.into());
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(mut stream: TcpStream, state: Arc<ServerState>) {
    // Connection-refusal seam: a plan with budgeted refusals closes the
    // stream before any frame is read — to the peer this is a worker that
    // accepted and immediately hung up, i.e. one that is mid-restart.
    if state.plan.lock().take_refusal() {
        return;
    }
    let _ = stream.set_nodelay(true);
    // Short read timeout so the loop can observe shutdown/kill promptly.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    loop {
        if state.is_stopped() {
            return;
        }
        let mut reader = FrameReader {
            stream: &mut stream,
            state: &state,
            in_frame: false,
        };
        let (opcode, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            // Idle between frames: nothing was consumed, poll again.
            Err(FrameError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)) => continue,
            Err(_) => return, // peer hung up, stalled mid-frame or lost protocol sync
        };
        match opcode {
            OP_SET_FAULT => {
                // Control plane: installing a plan resets the response
                // counter and is never itself subject to faults.
                let response = match FaultPlan::decode(&mut ByteReader::new(&payload)) {
                    Ok(plan) => {
                        *state.plan.lock() = plan;
                        state.responses.store(0, Ordering::SeqCst);
                        (OP_FAULT_OK, Vec::new())
                    }
                    Err(e) => (
                        OP_ERROR,
                        encode_error_payload(&format!("bad fault plan: {e}")),
                    ),
                };
                if write_frame(&mut stream, response.0, &response.1).is_err() {
                    return;
                }
            }
            OP_SHUTDOWN => {
                state.stop();
                return;
            }
            _ => {
                let response = dispatch(&state, opcode, &payload);
                match respond_with_faults(&state, &mut stream, response.0, &response.1) {
                    Ok(()) => {}
                    Err(()) => return,
                }
            }
        }
    }
}

fn dispatch(state: &ServerState, opcode: u16, payload: &[u8]) -> (u16, Vec<u8>) {
    if opcode == OP_PING {
        return (OP_PONG, payload.to_vec());
    }
    for handler in &state.handlers {
        match handler.handle(opcode, payload) {
            Ok(Some(response)) => return response,
            Ok(None) => continue,
            Err(message) => return (OP_ERROR, encode_error_payload(&message)),
        }
    }
    (
        OP_ERROR,
        encode_error_payload(&format!("unknown opcode {opcode}")),
    )
}

/// Sends a response through the fault seam. `Err(())` means the
/// connection must be closed.
fn respond_with_faults(
    state: &ServerState,
    stream: &mut TcpStream,
    opcode: u16,
    payload: &[u8],
) -> Result<(), ()> {
    let n = state.responses.fetch_add(1, Ordering::SeqCst);
    let action = next_action(&mut state.plan.lock(), n);
    match action {
        FaultAction::Kill => {
            if state.fatal_faults {
                std::process::exit(FAULT_EXIT_CODE);
            }
            state.stop();
            Err(())
        }
        FaultAction::Drop => Err(()),
        FaultAction::Deliver { delay_ms, corrupt } => {
            if let Some(ms) = delay_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            write_frame_with(stream, opcode, payload, corrupt).map_err(|_| ())
        }
    }
}

/// Interprets a `(opcode, payload)` reply that should have been `ok_op`,
/// turning [`OP_ERROR`] and unexpected opcodes into [`RemoteError`].
pub fn expect_reply(ok_op: u16, reply: (u16, Vec<u8>)) -> Result<Vec<u8>, RemoteError> {
    let (op, payload) = reply;
    if op == ok_op {
        Ok(payload)
    } else if op == OP_ERROR {
        Err(RemoteError::Protocol {
            message: decode_error_payload(&payload),
        })
    } else {
        Err(RemoteError::Protocol {
            message: format!("unexpected reply opcode {op} (want {ok_op})"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::client::{ClientConfig, WorkerClient};
    use super::super::frame::OP_PONG;
    use super::*;

    /// Test-local opcodes, outside the range `frame` assigns.
    const OP_ECHO: u16 = 0x7e00;
    const OP_ECHO_OK: u16 = 0x7e01;

    /// Echoes any `OP_ECHO` payload back as `OP_ECHO_OK`.
    struct Echo;

    impl FrameHandler for Echo {
        fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
            if opcode == OP_ECHO {
                if payload == b"boom" {
                    return Err("echo refused".to_owned());
                }
                Ok(Some((OP_ECHO_OK, payload.to_vec())))
            } else {
                Ok(None)
            }
        }
    }

    fn spawn_echo() -> (WorkerServer, WorkerClient) {
        let server = WorkerServer::bind("127.0.0.1:0", vec![Box::new(Echo)], false).unwrap();
        let client = WorkerClient::new(server.addr().to_string(), ClientConfig::fast());
        (server, client)
    }

    #[test]
    fn ping_pong_and_handler_dispatch() {
        let (server, mut client) = spawn_echo();
        let (op, payload) = client.call(OP_PING, b"hi").unwrap();
        assert_eq!((op, payload.as_slice()), (OP_PONG, b"hi".as_slice()));
        let reply = client.call(OP_ECHO, b"work").unwrap();
        assert_eq!(expect_reply(OP_ECHO_OK, reply).unwrap(), b"work");
        assert!(client.bytes_sent() > 0 && client.bytes_received() > 0);
        server.shutdown();
    }

    #[test]
    fn frame_stalled_mid_read_is_still_served() {
        use std::io::Write;
        let (server, _) = spawn_echo();
        let mut frame = Vec::new();
        write_frame(&mut frame, OP_PING, &[7u8; 64]).unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The frame arrives in two halves, far enough apart that the
        // worker's poll timeout fires while it is mid-payload.
        stream.write_all(head).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(POLL_INTERVAL * 4);
        stream.write_all(tail).unwrap();
        stream.flush().unwrap();
        let (op, payload) = read_frame(&mut stream).unwrap();
        assert_eq!((op, payload.as_slice()), (OP_PONG, [7u8; 64].as_slice()));
        // The connection stayed in sync: a second frame is answered too.
        write_frame(&mut stream, OP_PING, b"again").unwrap();
        let (op, payload) = read_frame(&mut stream).unwrap();
        assert_eq!((op, payload.as_slice()), (OP_PONG, b"again".as_slice()));
        server.shutdown();
    }

    #[test]
    fn handler_error_becomes_typed_op_error() {
        let (server, mut client) = spawn_echo();
        let reply = client.call(OP_ECHO, b"boom").unwrap();
        match expect_reply(OP_ECHO_OK, reply) {
            Err(RemoteError::Protocol { message }) => assert!(message.contains("echo refused")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_opcode_is_reported() {
        let (server, mut client) = spawn_echo();
        let reply = client.call(999, b"").unwrap();
        match expect_reply(OP_PONG, reply) {
            Err(RemoteError::Protocol { message }) => assert!(message.contains("unknown opcode")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn drop_fault_closes_once_then_recovers() {
        let (server, mut client) = spawn_echo();
        let mut plan_bytes = Vec::new();
        FaultPlan {
            drop_after_responses: Some(0),
            ..FaultPlan::default()
        }
        .encode(&mut plan_bytes);
        let reply = client.call(OP_SET_FAULT, &plan_bytes).unwrap();
        assert_eq!(reply.0, OP_FAULT_OK);
        // First response dropped: the call fails mid-stream.
        assert!(client.call(OP_PING, b"x").is_err());
        // One-shot: the reconnect succeeds and the next response lands.
        let (op, _) = client.call(OP_PING, b"y").unwrap();
        assert_eq!(op, OP_PONG);
        server.shutdown();
    }

    #[test]
    fn corrupt_fault_is_seen_as_checksum_mismatch() {
        let (server, mut client) = spawn_echo();
        let mut plan_bytes = Vec::new();
        FaultPlan {
            corrupt_response: Some(0),
            ..FaultPlan::default()
        }
        .encode(&mut plan_bytes);
        client.call(OP_SET_FAULT, &plan_bytes).unwrap();
        match client.call(OP_PING, b"payload") {
            Err(RemoteError::Frame(FrameError::Corrupt { .. })) => {}
            other => panic!("expected corrupt frame, got {other:?}"),
        }
        // One-shot again.
        assert!(client.call(OP_PING, b"payload").is_ok());
        server.shutdown();
    }

    #[test]
    fn refusal_fault_rejects_new_connections_then_recovers() {
        let (server, mut client) = spawn_echo();
        let mut plan_bytes = Vec::new();
        FaultPlan {
            refuse_connections: Some(2),
            drop_after_responses: Some(0),
            ..FaultPlan::default()
        }
        .encode(&mut plan_bytes);
        client.call(OP_SET_FAULT, &plan_bytes).unwrap();
        // The drop fault evicts the installer's established stream, so
        // every following call goes through the refusal window: two
        // refused reconnects, then the worker is healthy again.
        assert!(client.call(OP_PING, b"dropped").is_err());
        assert!(client.call(OP_PING, b"refused 1").is_err());
        assert!(client.call(OP_PING, b"refused 2").is_err());
        let (op, _) = client.call(OP_PING, b"healed").unwrap();
        assert_eq!(op, OP_PONG);
        server.shutdown();
    }

    #[test]
    fn kill_fault_stops_in_process_worker_permanently() {
        let (server, mut client) = spawn_echo();
        let mut plan_bytes = Vec::new();
        FaultPlan {
            kill_after_responses: Some(1),
            ..FaultPlan::default()
        }
        .encode(&mut plan_bytes);
        client.call(OP_SET_FAULT, &plan_bytes).unwrap();
        assert!(client.call(OP_PING, b"a").is_ok()); // response 0 delivered
        assert!(client.call(OP_PING, b"b").is_err()); // response 1 kills
                                                      // The worker is dead: reconnects are refused.
        assert!(client.call(OP_PING, b"c").is_err());
        assert!(server.is_stopped());
    }

    #[test]
    fn delay_fault_still_delivers() {
        let (server, mut client) = spawn_echo();
        let mut plan_bytes = Vec::new();
        FaultPlan {
            delay_response_ms: Some(30),
            ..FaultPlan::default()
        }
        .encode(&mut plan_bytes);
        client.call(OP_SET_FAULT, &plan_bytes).unwrap();
        let started = std::time::Instant::now();
        assert!(client.call(OP_PING, b"slow").is_ok());
        assert!(started.elapsed() >= Duration::from_millis(25));
        server.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_connections() {
        let (server, mut client) = spawn_echo();
        let addr = server.addr().to_string();
        let _ = client.call(OP_SHUTDOWN, b"");
        server.wait();
        let mut fresh = WorkerClient::new(addr, ClientConfig::fast());
        assert!(fresh.call(OP_PING, b"").is_err());
    }
}
