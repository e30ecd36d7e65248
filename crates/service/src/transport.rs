//! Transports: newline-delimited JSON over stdio and TCP.
//!
//! Both transports are thin line pumps around [`Service::handle_line`]:
//! read one line, dispatch, repeat until EOF or until the dispatcher
//! acknowledges `Shutdown` (`ControlFlow::Break`). Verdicts are pushed by
//! session drain tasks through the connection's shared writer, so a
//! pipelining client sees replies interleaved across its sessions but in
//! submission order within each one.
//!
//! * [`serve_stdio`] — one connection on stdin/stdout; the transport of
//!   supervised deployments (systemd, container entrypoints, test
//!   harnesses driving a child process).
//! * [`serve_tcp`] — a listener accepting any number of concurrent
//!   connections, one reader thread each, all dispatching into the same
//!   [`Service`] (and therefore the same process-wide cache).

use crate::dispatch::{Respond, Service, WriterResponder};
use covern_observe::{metrics, obs_info};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked TCP reader re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Process-wide connection ids for log correlation (never on the wire).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Serves one connection over arbitrary reader/writer halves (the stdio
/// path, and directly usable by in-process tests).
///
/// Returns when the reader hits EOF, a non-recoverable read error occurs,
/// or the dispatcher acknowledges shutdown.
///
/// # Errors
///
/// Returns [`std::io::Error`] from the reader.
pub fn serve_lines(
    service: &Service,
    reader: impl BufRead,
    writer: Box<dyn Write + Send>,
) -> std::io::Result<()> {
    let responder: Arc<dyn Respond> = Arc::new(WriterResponder::new(writer));
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if service.handle_line(&line, &responder).is_break() {
            break;
        }
    }
    Ok(())
}

/// Serves the process's stdin/stdout (see module docs). Blocks until EOF
/// or shutdown.
///
/// # Errors
///
/// Returns [`std::io::Error`] from stdin.
pub fn serve_stdio(service: &Service) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    serve_lines(service, stdin.lock(), Box::new(std::io::stdout()))
}

/// A running TCP server handle.
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the server has shut down (a client sent `Shutdown`)
    /// and every connection thread has exited.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // Detach rather than join: a dropped handle must not hang its
        // owner when no client ever sends Shutdown.
        self.accept.take();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves connections until a
/// client sends `Shutdown`. Returns immediately; use
/// [`TcpServer::join`] to wait for termination.
///
/// # Errors
///
/// Returns [`std::io::Error`] if binding fails.
pub fn serve_tcp(service: Arc<Service>, addr: &str) -> std::io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let accept = std::thread::spawn(move || accept_loop(&listener, &service));
    Ok(TcpServer { local_addr, accept: Some(accept) })
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    let local_addr = listener.local_addr().ok();
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if service.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        metrics().connections_accepted_total.inc();
        let service = Arc::clone(service);
        connections.push(std::thread::spawn(move || connection_loop(stream, &service, local_addr)));
    }
    for c in connections {
        let _ = c.join();
    }
}

/// Pumps one TCP connection. Reads use a short timeout so the thread
/// notices a shutdown initiated on a *different* connection; partial lines
/// accumulated across timeouts are preserved (`read_line` keeps already
/// read bytes in the buffer on error).
fn connection_loop(stream: TcpStream, service: &Arc<Service>, local_addr: Option<SocketAddr>) {
    let conn = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".to_owned());
    metrics().connections_active.inc();
    obs_info!("connection accepted", conn = conn, peer = peer);
    prepare_accepted(&stream);
    let Ok(write_half) = stream.try_clone() else {
        metrics().connections_active.dec();
        obs_info!("connection closed", conn = conn, peer = peer);
        return;
    };
    let responder: Arc<dyn Respond> = Arc::new(WriterResponder::new(Box::new(write_half)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let flow = if line.trim().is_empty() {
                    ControlFlow::Continue(())
                } else {
                    service.handle_line(&line, &responder)
                };
                line.clear();
                if flow.is_break() {
                    // Shutdown acknowledged on this connection: wake the
                    // accept loop so it observes the flag and stops.
                    if let Some(addr) = local_addr {
                        let _ = TcpStream::connect_timeout(&wake_addr(addr), READ_POLL);
                    }
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if service.is_shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    metrics().connections_active.dec();
    obs_info!("connection closed", conn = conn, peer = peer);
}

/// Socket options of an accepted connection: the short read timeout the
/// shutdown poll relies on, and Nagle's algorithm off. Replies are
/// single-write frames and the peer waits on each one, so coalescing only
/// holds a reply back until the client's delayed ACK.
fn prepare_accepted(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
}

/// The address the shutdown self-wake connects to. A daemon bound to a
/// wildcard address (`0.0.0.0` / `::`) cannot reliably connect *to* that
/// address on every platform, so the wake targets the loopback of the
/// same family and port instead.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ServiceConfig;
    use crate::protocol::{Command, Reply, Request, Response};

    #[test]
    fn wake_addr_redirects_wildcards_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:7071".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7071".parse().unwrap());
        let v6: SocketAddr = "[::]:7071".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7071".parse().unwrap());
        let concrete: SocketAddr = "192.168.1.5:9".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
    }

    #[test]
    fn accepted_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        prepare_accepted(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_POLL));
    }

    #[test]
    fn tcp_shutdown_terminates_a_wildcard_bound_server() {
        use crate::client::Client;
        let service = Service::new(ServiceConfig::default());
        let server = serve_tcp(service, "0.0.0.0:0").unwrap();
        let mut addr = server.local_addr();
        addr.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        // join() returning proves the accept loop was woken despite the
        // wildcard bind.
        server.join();
    }

    #[test]
    fn serve_lines_answers_hello_and_stops_on_shutdown() {
        let service = Service::new(ServiceConfig::default());
        let hello = crate::protocol::encode(&Request::new(1, Command::Hello)).unwrap();
        let bye = crate::protocol::encode(&Request::new(2, Command::Shutdown)).unwrap();
        // A trailing line after Shutdown must never be dispatched.
        let input = format!("{hello}\n\n{bye}\n{hello}\n");

        let out = Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        struct SharedOut(Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        serve_lines(&service, input.as_bytes(), Box::new(SharedOut(Arc::clone(&out)))).unwrap();

        let out = out.lock().unwrap();
        let lines: Vec<Response> = String::from_utf8(out.clone())
            .unwrap()
            .lines()
            .map(|l| crate::protocol::decode(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "hello + shutdown ack, nothing after");
        assert!(matches!(lines[0].reply, Reply::Hello(_)));
        assert!(matches!(lines[1].reply, Reply::ShuttingDown));
        assert!(service.is_shutting_down());
    }
}
