//! A tiny hand-rolled HTTP/1.1 server for the observability surface.
//!
//! [`ObsServer`] binds a listener, answers `GET /metrics` (rendered from
//! a shared [`Registry`]), `GET /healthz`, and `GET /readyz` (from a
//! shared [`Health`]) — plus, when a [`SweepControl`] handle is
//! attached, the operator control plane: `POST /control/pause`,
//! `/control/resume`, `/control/drain`, and `/control/abort`, each
//! answering the sweep's resulting state. It is deliberately minimal:
//! thread-per-connection, `Connection: close` on every response, a read
//! timeout so a stalled scraper cannot pin a handler thread, and the
//! same shutdown discipline as the relay daemon — an atomic flag plus a
//! self-connect to wake the accept loop, then a bounded join.
//!
//! Hostile input is bounded: a request or header line longer than 8 KiB
//! or more than 64 header lines get a `431` and a close, having buffered
//! at most one capped line; past 32 concurrent connections, a new one
//! gets a `503` and a close without a handler thread.
//!
//! This is an operator endpoint for `curl` and Prometheus scrapers, not
//! a general web server: no keep-alive, no TLS, no request bodies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::control::SweepControl;
use crate::health::Health;
use crate::registry::Registry;

/// How long a handler waits for a request line before hanging up.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request or header line accepted, line terminator included.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines accepted after the request line.
const MAX_HEADERS: usize = 64;

/// Most connections served at once.
const MAX_CONNECTIONS: usize = 32;

/// A running observability endpoint; shuts down when dropped.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (port 0 picks a free port — see [`ObsServer::addr`])
    /// and starts serving `/metrics`, `/healthz`, and `/readyz` from the
    /// shared registry and health state. `POST /control/*` answers 404
    /// (read-only endpoint); use [`ObsServer::serve_with_control`] to
    /// attach a control plane.
    pub fn serve(
        addr: impl ToSocketAddrs,
        registry: &'static Registry,
        health: Arc<Health>,
    ) -> io::Result<ObsServer> {
        ObsServer::serve_with_control(addr, registry, health, None)
    }

    /// [`ObsServer::serve`] with an optional [`SweepControl`] handle;
    /// when present, `POST /control/{pause,resume,drain,abort}` drive
    /// it and answer the resulting state.
    pub fn serve_with_control(
        addr: impl ToSocketAddrs,
        registry: &'static Registry,
        health: Arc<Health>,
        control: Option<Arc<SweepControl>>,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_loop = std::thread::Builder::new()
            .name("obs-accept".to_string())
            .spawn(move || accept_loop(listener, accept_stop, registry, health, control))?;
        Ok(ObsServer {
            addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address — the real port when `serve` was given port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; if the
        // connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    registry: &'static Registry,
    health: Arc<Health>,
    control: Option<Arc<SweepControl>>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Only this loop increments `active`, so the check cannot race
        // another admission.
        if active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            // A fresh socket's send buffer takes the short reply without
            // blocking the loop.
            respond(
                &mut stream,
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                "too many connections\n",
            );
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let slot = ConnectionSlot(Arc::clone(&active));
        let health = Arc::clone(&health);
        let control = control.clone();
        // Handlers are detached: each is bounded by READ_TIMEOUT plus one
        // response write, so none outlives shutdown by more than that.
        let _ = std::thread::Builder::new()
            .name("obs-conn".to_string())
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream, registry, &health, control.as_deref());
            });
    }
}

/// One admitted connection; frees its place when the handler ends (or
/// when its thread fails to start).
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What reading a request's head found.
enum Head {
    /// The request line; the headers were read and ignored.
    Request(String),
    /// A line longer than [`MAX_LINE`] or more than [`MAX_HEADERS`]
    /// header lines.
    TooLarge,
    /// The peer closed or stalled before sending a request line.
    Gone,
}

/// Reads one line, terminator included, buffering at most [`MAX_LINE`]
/// bytes: `Ok(None)` when the line is longer. An empty line means end of
/// stream.
fn read_line_capped(reader: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)?;
    if line.len() == MAX_LINE && line.last() != Some(&b'\n') {
        return Ok(None);
    }
    Ok(Some(line))
}

/// Reads the request line, then drains the headers: we answer from the
/// request line alone, but reading the head lets well-behaved clients
/// see a clean close. A head that ends early still gets its answer.
fn read_head(reader: &mut impl BufRead) -> Head {
    let request_line = match read_line_capped(reader) {
        Ok(Some(line)) if !line.is_empty() => line,
        Ok(Some(_)) | Err(_) => return Head::Gone,
        Ok(None) => return Head::TooLarge,
    };
    let request_line = String::from_utf8_lossy(&request_line).into_owned();
    // up to MAX_HEADERS header lines, then the blank line that ends the head
    for _ in 0..=MAX_HEADERS {
        match read_line_capped(reader) {
            Ok(None) => return Head::TooLarge,
            Ok(Some(line)) if !matches!(line.as_slice(), b"" | b"\r\n" | b"\n") => {}
            // a blank line ends the head; so does a peer that stops early
            Ok(Some(_)) | Err(_) => return Head::Request(request_line),
        }
    }
    Head::TooLarge
}

fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    health: &Health,
    control: Option<&SweepControl>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let head = read_head(&mut reader);
    let mut stream = reader.into_inner();
    let (status, content_type, body) = match head {
        Head::Request(request_line) => {
            let mut parts = request_line.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            route(method, path, registry, health, control)
        }
        Head::TooLarge => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        ),
        Head::Gone => return,
    };
    respond(&mut stream, status, content_type, &body);
}

/// Writes one `Connection: close` response. A scraper that hung up
/// mid-response needs nothing more, so write errors are ignored.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

fn route(
    method: &str,
    path: &str,
    registry: &Registry,
    health: &Health,
    control: Option<&SweepControl>,
) -> (&'static str, &'static str, String) {
    if method == "POST" {
        if let Some(action) = path.strip_prefix("/control/") {
            return control_route(action, control);
        }
    }
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render(),
        ),
        "/healthz" => probe(health.is_live(), "live", health),
        "/readyz" => probe(health.is_ready(), "ready", health),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

/// Handles `POST /control/<action>`. Without an attached handle the
/// control plane does not exist: 404, matching any other unknown path.
fn control_route(
    action: &str,
    control: Option<&SweepControl>,
) -> (&'static str, &'static str, String) {
    let Some(control) = control else {
        return (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "no sweep control attached\n".to_string(),
        );
    };
    let state = match action {
        "pause" => control.pause(),
        "resume" => control.resume(),
        "drain" => control.drain(),
        "abort" => control.abort(),
        _ => {
            return (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown control action\n".to_string(),
            )
        }
    };
    (
        "200 OK",
        "text/plain; charset=utf-8",
        format!("{}\n", state.as_str()),
    )
}

fn probe(ok: bool, what: &str, health: &Health) -> (&'static str, &'static str, String) {
    let status = if ok {
        "200 OK"
    } else {
        "503 Service Unavailable"
    };
    let verdict = if ok { "ok" } else { "unavailable" };
    (
        status,
        "text/plain; charset=utf-8",
        format!("{verdict}: {what} ({})\n", health.status()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::OnceLock;

    fn test_registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let r = Registry::new();
            r.counter("obs_test_requests_total", "test counter", &[])
                .add(42);
            r
        })
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn serves_metrics_health_and_ready() {
        let health = Arc::new(Health::new());
        let mut server = ObsServer::serve("127.0.0.1:0", test_registry(), Arc::clone(&health))
            .expect("bind obs server");
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("obs_test_requests_total 42"));

        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
        assert!(get(addr, "/readyz").starts_with("HTTP/1.1 503"));
        health.set_ready(true);
        health.set_status("serving");
        let ready = get(addr, "/readyz");
        assert!(ready.starts_with("HTTP/1.1 200 OK"));
        assert!(ready.contains("serving"));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        server.shutdown();
        assert!(TcpStream::connect(addr).is_err() || get_fails(addr));
    }

    // After shutdown the port may still accept (TIME_WAIT races on some
    // platforms) but nothing answers; either outcome proves the loop died.
    fn get_fails(addr: SocketAddr) -> bool {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return true;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = String::new();
        stream.read_to_string(&mut buf).is_err() || buf.is_empty()
    }

    #[test]
    fn rejects_non_get() {
        let health = Arc::new(Health::new());
        let server = ObsServer::serve("127.0.0.1:0", test_registry(), health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405"));
    }

    fn post(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn control_routes_drive_the_sweep_handle() {
        use crate::control::{SweepControl, SweepState};
        let health = Arc::new(Health::new());
        let control = Arc::new(SweepControl::new());
        let server = ObsServer::serve_with_control(
            "127.0.0.1:0",
            test_registry(),
            health,
            Some(Arc::clone(&control)),
        )
        .expect("bind");
        let addr = server.addr();

        let paused = post(addr, "/control/pause");
        assert!(paused.starts_with("HTTP/1.1 200 OK"), "{paused}");
        assert!(paused.ends_with("paused\n"));
        assert_eq!(control.state(), SweepState::Paused);

        assert!(post(addr, "/control/resume").ends_with("running\n"));
        assert_eq!(control.state(), SweepState::Running);

        assert!(post(addr, "/control/nope").starts_with("HTTP/1.1 404"));
        // GET on a control path is not a control action
        assert!(get(addr, "/control/pause").starts_with("HTTP/1.1 404"));

        assert!(post(addr, "/control/drain").ends_with("draining\n"));
        assert!(post(addr, "/control/abort").ends_with("aborted\n"));
        assert_eq!(control.state(), SweepState::Aborted);
    }

    #[test]
    fn control_routes_without_a_handle_are_absent() {
        let health = Arc::new(Health::new());
        let server = ObsServer::serve("127.0.0.1:0", test_registry(), health).expect("bind");
        let response = post(server.addr(), "/control/pause");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }

    /// Reads until the server closes; a reset after the response (the
    /// server closed with request bytes unread) ends the read too.
    fn read_reply(stream: &mut TcpStream) -> String {
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = stream.read(&mut buf) {
            if n == 0 {
                break;
            }
            reply.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn capped_line_reads_stop_at_the_cap() {
        let flood = io::repeat(b'a').take(10 << 20);
        let mut reader = BufReader::new(flood);
        assert!(read_line_capped(&mut reader).expect("read").is_none());
        // only the cap and one buffer refill were pulled from the flood
        let consumed = (10 << 20) - reader.into_inner().limit();
        assert!(consumed <= (MAX_LINE + 8 * 1024) as u64, "{consumed}");
    }

    #[test]
    fn a_10mb_request_line_gets_a_prompt_431() {
        let health = Arc::new(Health::new());
        let server = ObsServer::serve("127.0.0.1:0", test_registry(), health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let flood = std::thread::spawn(move || {
            let chunk = [b'a'; 64 * 1024];
            // the server stops reading at the cap; the rest may fail
            for _ in 0..160 {
                if writer.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let started = std::time::Instant::now();
        let _ = stream.set_read_timeout(Some(2 * READ_TIMEOUT));
        let reply = read_reply(&mut stream);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply:?}");
        assert!(started.elapsed() < READ_TIMEOUT, "{:?}", started.elapsed());
        drop(stream);
        flood.join().expect("flood thread");
    }

    #[test]
    fn too_many_header_lines_get_431() {
        let health = Arc::new(Health::new());
        let server = ObsServer::serve("127.0.0.1:0", test_registry(), health).expect("bind");
        let send = |headers: usize| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            let mut head = "GET /healthz HTTP/1.1\r\n".to_string();
            for i in 0..headers {
                head.push_str(&format!("X-Filler-{i}: x\r\n"));
            }
            head.push_str("\r\n");
            stream.write_all(head.as_bytes()).expect("request");
            read_reply(&mut stream)
        };
        assert!(send(MAX_HEADERS).starts_with("HTTP/1.1 200 OK"));
        assert!(send(MAX_HEADERS + 1).starts_with("HTTP/1.1 431"));
    }

    #[test]
    fn connections_past_the_cap_get_503() {
        let health = Arc::new(Health::new());
        let server = ObsServer::serve("127.0.0.1:0", test_registry(), health).expect("bind");
        let addr = server.addr();
        // idle connections hold every handler in its read
        let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        // accepted in order, so the extra one finds the cap reached
        let mut extra = TcpStream::connect(addr).expect("connect");
        let reply = read_reply(&mut extra);
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply:?}");
        // closing the idle ones frees their places
        drop(idle);
        let deadline = std::time::Instant::now() + READ_TIMEOUT;
        while !get(addr, "/healthz").starts_with("HTTP/1.1 200") {
            assert!(std::time::Instant::now() < deadline, "slots never freed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
