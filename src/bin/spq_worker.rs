//! `spq-worker` — a standalone shard worker process.
//!
//! Listens for framed requests from a `RemoteEngine` manager (the
//! `remote:N` backend): `OP_FEATURES` chunk frames ship a shard's feature
//! slice as the manager built it — its keyword index's columns and its
//! locations — which is checked and kept as it arrived, with no index
//! built here; `OP_PROVISION`
//! installs the shard over that slice with the data-space bounds and the
//! data objects, one grid over which every shard hosted here shares;
//! `OP_SHARD_QUERY` answers a query with a hosted shard's kernel. Fault
//! plans installed via `OP_SET_FAULT` are **fatal**
//! here: a kill fault exits the process with code 86, exactly like a real
//! crash — which is what the cross-process fault tests exercise.
//!
//! Usage:
//!
//! ```text
//! spq-worker [--listen HOST:PORT] [--quiet]
//! ```
//!
//! The default `--listen 127.0.0.1:0` binds an ephemeral port; the chosen
//! address is printed to stdout as `spq-worker listening on HOST:PORT` so
//! a spawning manager (or test) can discover it. `--quiet` suppresses the
//! banner — the mode for a restarted worker rejoining a manager that
//! already knows its fixed address and re-admits it via health probes.

use spq::core::remote::ShardHost;
use spq::mapreduce::remote::WorkerServer;
use std::io::Write;

fn main() {
    let mut listen = String::from("127.0.0.1:0");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => listen = addr,
                None => die("--listen needs an address (HOST:PORT)"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("usage: spq-worker [--listen HOST:PORT] [--quiet]");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let server = match WorkerServer::bind(&listen, vec![Box::new(ShardHost::new())], true) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {listen}: {e}")),
    };
    if !quiet {
        println!("spq-worker listening on {}", server.addr());
        let _ = std::io::stdout().flush();
    }
    server.wait();
}

fn die(message: &str) -> ! {
    eprintln!("spq-worker: {message}");
    std::process::exit(2);
}
