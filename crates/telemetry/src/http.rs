//! The scrape/health endpoint: a deliberately tiny HTTP/1.0 responder
//! (std-only, one short-lived thread per request, `Connection: close`)
//! that any component can mount on a side port.
//!
//! Routes:
//!
//! * `GET /metrics` — the registry's Prometheus-style text exposition;
//! * `GET /metrics.json` — the registry's JSON dump;
//! * `GET /healthz` — runs the mounted [`HealthChecks`]; `200 ok` when
//!   every check passes, `503 unhealthy` otherwise, with one
//!   `name: detail` line per check either way;
//! * `GET /spans` — the flight recorder's dump
//!   ([`crate::flight::dump_json`]);
//! * any extra [`Routes`] the mounting component registers (the
//!   framework adds `/cluster.json` and `/profile.json` here).
//!
//! This is an observability plane, not a web server: no keep-alive, no
//! TLS, no request bodies, an 8 KiB request cap, and the same bounded
//! accept discipline as the tuple-space server (connection cap +
//! per-socket timeouts via [`HttpOptions`]). Requests outside that
//! envelope are rejected rather than misread: non-GET methods get
//! `405` (with `Allow: GET`), requests overflowing the 8 KiB cap get
//! `431`, and pipelined requests (bytes after the header terminator)
//! get `400` — every response, error or not, carries `Content-Length`
//! and `Connection: close`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::registry::{refresh_process_series, registry};

/// Socket discipline for the endpoint (the scrape-side analogue of the
/// tuple-space server's `ServerOptions`).
#[derive(Debug, Clone, Copy)]
pub struct HttpOptions {
    /// Per-connection read timeout (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout (`None` = wait forever).
    pub write_timeout: Option<Duration>,
    /// Connections served concurrently before excess ones are dropped.
    pub max_connections: usize,
}

impl Default for HttpOptions {
    fn default() -> HttpOptions {
        HttpOptions {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_connections: 16,
        }
    }
}

/// A health check's verdict: `Ok(detail)` or `Err(what is wrong)`.
pub type HealthResult = Result<String, String>;

type Check = Box<dyn Fn() -> HealthResult + Send + Sync>;

/// A named set of health checks, run on every `GET /healthz`.
#[derive(Default)]
pub struct HealthChecks {
    checks: Mutex<Vec<(String, Check)>>,
}

impl std::fmt::Debug for HealthChecks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.checks.lock().unwrap_or_else(|e| e.into_inner()).len();
        f.debug_struct("HealthChecks").field("checks", &n).finish()
    }
}

impl HealthChecks {
    /// An empty check set (healthy by definition).
    pub fn new() -> Arc<HealthChecks> {
        Arc::new(HealthChecks::default())
    }

    /// Registers a named check. Checks run in registration order.
    pub fn register(
        &self,
        name: impl Into<String>,
        check: impl Fn() -> HealthResult + Send + Sync + 'static,
    ) {
        self.checks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name.into(), Box::new(check)));
    }

    /// Runs every check: overall verdict plus a `name: detail` report
    /// line per check.
    pub fn run(&self) -> (bool, String) {
        let checks = self.checks.lock().unwrap_or_else(|e| e.into_inner());
        let mut healthy = true;
        let mut report = String::new();
        for (name, check) in checks.iter() {
            match check() {
                Ok(detail) => report.push_str(&format!("{name}: ok ({detail})\n")),
                Err(problem) => {
                    healthy = false;
                    report.push_str(&format!("{name}: FAIL ({problem})\n"));
                }
            }
        }
        (healthy, report)
    }
}

/// A route handler's response: status line, content type, body.
pub type RouteResponse = (&'static str, &'static str, String);

type Handler = Box<dyn Fn() -> RouteResponse + Send + Sync>;

/// Extra GET routes served alongside the built-in ones. Built-in paths
/// win; lookups are exact-match on the request path.
#[derive(Default)]
pub struct Routes {
    routes: Mutex<Vec<(String, Handler)>>,
}

impl std::fmt::Debug for Routes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.routes.lock().unwrap_or_else(|e| e.into_inner()).len();
        f.debug_struct("Routes").field("routes", &n).finish()
    }
}

impl Routes {
    /// An empty route table.
    pub fn new() -> Arc<Routes> {
        Arc::new(Routes::default())
    }

    /// Registers a handler for an exact path (e.g. `/cluster.json`).
    pub fn register(
        &self,
        path: impl Into<String>,
        handler: impl Fn() -> RouteResponse + Send + Sync + 'static,
    ) {
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((path.into(), Box::new(handler)));
    }

    fn dispatch(&self, path: &str) -> Option<RouteResponse> {
        let routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        routes
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, handler)| handler())
    }
}

/// A running scrape endpoint; stops (listener closed, accept thread
/// joined) on drop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serves the observability routes on `bind` with default options.
pub fn serve(bind: &str, health: Arc<HealthChecks>) -> std::io::Result<HttpServer> {
    serve_routed(bind, health, Routes::new(), HttpOptions::default())
}

/// Serves the observability routes on `bind`, plus any extra [`Routes`]
/// the caller mounts.
pub fn serve_routed(
    bind: &str,
    health: Arc<HealthChecks>,
    routes: Arc<Routes>,
    opts: HttpOptions,
) -> std::io::Result<HttpServer> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let active = Arc::new(AtomicUsize::new(0));
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if active.fetch_add(1, Ordering::SeqCst) >= opts.max_connections {
                active.fetch_sub(1, Ordering::SeqCst);
                continue; // over cap: drop the socket
            }
            let health = health.clone();
            let routes = routes.clone();
            let active = active.clone();
            std::thread::spawn(move || {
                let _ = serve_one(stream, &health, &routes, opts);
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    Ok(HttpServer {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn serve_one(
    stream: TcpStream,
    health: &HealthChecks,
    routes: &Routes,
    opts: HttpOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(opts.read_timeout)?;
    stream.set_write_timeout(opts.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?).take(8192);
    let response = read_request(&mut reader).and_then(|path| {
        // Bytes already buffered past the blank line mean the client
        // pipelined a second request we will never serve.
        if reader.get_ref().buffer().is_empty() {
            Ok(path)
        } else {
            Err(bad_request("pipelined requests not supported"))
        }
    });
    let (status, content_type, extra_headers, body) = match response {
        Ok(path) => {
            let (status, content_type, body) = route(&path, health, routes);
            (status, content_type, "", body)
        }
        Err(rejection) => rejection,
    };
    let mut stream = stream;
    stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    // Discard whatever request bytes are still pending (oversized or
    // pipelined input) so the close sends a FIN, not an RST — an RST
    // can destroy the in-flight rejection on the peer's side.
    let _ = stream.set_nonblocking(true);
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(())
}

/// A rejected request: status, content type, extra response headers
/// (each `\r\n`-terminated), body.
type Rejection = (&'static str, &'static str, &'static str, String);

fn bad_request(why: &str) -> Rejection {
    ("400 Bad Request", "text/plain", "", format!("{why}\n"))
}

/// Reads and validates the request line + headers off the capped
/// reader. `Ok(path)` for a well-formed GET; `Err(..)` is the rejection
/// to send (socket-level read failures also map here — best effort, the
/// peer is likely gone).
fn read_request(reader: &mut std::io::Take<BufReader<TcpStream>>) -> Result<String, Rejection> {
    let too_large: Rejection = (
        "431 Request Header Fields Too Large",
        "text/plain",
        "",
        "request exceeds the 8 KiB cap\n".to_owned(),
    );
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return Err(bad_request("unreadable request"));
    }
    // `read_line` returning without a terminator means the 8 KiB take
    // cap cut the request off mid-line.
    if !request_line.is_empty() && !request_line.ends_with('\n') && reader.limit() == 0 {
        return Err(too_large);
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        let n = match reader.read_line(&mut header) {
            Ok(n) => n,
            Err(_) => return Err(bad_request("unreadable request")),
        };
        if n > 0 && !header.ends_with('\n') && reader.limit() == 0 {
            return Err(too_large);
        }
        if n <= 2 {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next();
    if method.is_empty() {
        return Err(bad_request("empty request"));
    }
    if method != "GET" {
        return Err((
            "405 Method Not Allowed",
            "text/plain",
            "Allow: GET\r\n",
            "method not allowed; this endpoint is GET-only\n".to_owned(),
        ));
    }
    match path {
        Some(path) => Ok(path.to_owned()),
        None => Err(bad_request("malformed request line")),
    }
}

fn route(
    path: &str,
    health: &HealthChecks,
    routes: &Routes,
) -> (&'static str, &'static str, String) {
    if let Some(response) = routes.dispatch(path) {
        return response;
    }
    match path {
        "/metrics" => {
            refresh_process_series();
            (
                "200 OK",
                "text/plain; version=0.0.4",
                registry().render_text(),
            )
        }
        "/metrics.json" => {
            refresh_process_series();
            (
                "200 OK",
                "application/json",
                registry().to_json().to_string(),
            )
        }
        "/healthz" => {
            refresh_process_series();
            let (healthy, report) = health.run();
            if healthy {
                ("200 OK", "text/plain", format!("ok\n{report}"))
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain",
                    format!("unhealthy\n{report}"),
                )
            }
        }
        "/spans" => ("200 OK", "application/json", crate::flight::dump_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn routes_answer() {
        registry().counter("telemetry.http.test").inc();
        let health = HealthChecks::new();
        health.register("always", || Ok("fine".into()));
        let server = serve("127.0.0.1:0", health).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("telemetry.http.test 1"), "{body}");
        assert!(body.contains("process.uptime_seconds"), "{body}");

        let (head, body) = get(addr, "/metrics.json");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("application/json"));
        let metrics = crate::Json::parse(&body).unwrap();
        assert_eq!(metrics["counters"]["telemetry.http.test"].as_u64(), Some(1));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.starts_with("ok\n"), "{body}");
        assert!(body.contains("always: ok (fine)"), "{body}");

        let (head, body) = get(addr, "/spans");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let spans = crate::Json::parse(&body).unwrap();
        assert!(spans["events"].as_array().is_some(), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    #[test]
    fn failing_check_yields_503() {
        let health = HealthChecks::new();
        health.register("good", || Ok("yes".into()));
        health.register("bad", || Err("broken pipe".into()));
        let server = serve("127.0.0.1:0", health).unwrap();
        let (head, body) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(body.starts_with("unhealthy\n"), "{body}");
        assert!(body.contains("good: ok (yes)"), "{body}");
        assert!(body.contains("bad: FAIL (broken pipe)"), "{body}");
    }

    fn raw(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn non_get_methods_get_405_with_allow_header() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        for method in ["POST", "PUT", "DELETE", "HEAD"] {
            let response = raw(
                server.addr(),
                format!("{method} /metrics HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes(),
            );
            assert!(response.starts_with("HTTP/1.0 405"), "{method}: {response}");
            assert!(response.contains("Allow: GET\r\n"), "{method}: {response}");
            assert!(response.contains("Content-Length:"), "{method}: {response}");
        }
    }

    #[test]
    fn oversized_request_gets_431() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        // A request line longer than the 8 KiB cap, never terminated.
        let mut request = b"GET /".to_vec();
        request.extend(std::iter::repeat_n(b'a', 9000));
        let response = raw(server.addr(), &request);
        assert!(response.starts_with("HTTP/1.0 431"), "{response}");

        // Oversized headers (request line fine) hit the same cap.
        let mut request = b"GET /metrics HTTP/1.0\r\nX-Pad: ".to_vec();
        request.extend(std::iter::repeat_n(b'b', 9000));
        let response = raw(server.addr(), &request);
        assert!(response.starts_with("HTTP/1.0 431"), "{response}");
    }

    #[test]
    fn pipelined_requests_are_rejected() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        let response = raw(
            server.addr(),
            b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.0 400"), "{response}");
        assert!(response.contains("pipelined"), "{response}");
        // One response only: nothing follows the first body.
        assert_eq!(response.matches("HTTP/1.0").count(), 1, "{response}");
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        let response = raw(server.addr(), b"GET\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 400"), "{response}");
    }

    #[test]
    fn every_route_carries_content_length() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        for path in ["/metrics", "/metrics.json", "/healthz", "/spans", "/nope"] {
            let (head, body) = get(server.addr(), path);
            let declared: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap_or_else(|| panic!("{path}: no Content-Length in {head}"))
                .parse()
                .unwrap();
            assert_eq!(declared, body.len(), "{path}: length mismatch");
        }
    }

    #[test]
    fn extra_routes_dispatch_before_404() {
        let routes = Routes::new();
        routes.register("/extra", || ("200 OK", "text/plain", "extra\n".to_owned()));
        let server = serve_routed(
            "127.0.0.1:0",
            HealthChecks::new(),
            routes,
            HttpOptions::default(),
        )
        .unwrap();
        let (head, body) = get(server.addr(), "/extra");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "extra\n");
        let (head, _) = get(server.addr(), "/other");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    #[test]
    fn server_stops_on_drop_and_port_reusable() {
        let server = serve("127.0.0.1:0", HealthChecks::new()).unwrap();
        let addr = server.addr();
        drop(server);
        // The listener is gone: a fresh connect must fail or be closed
        // without a response.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                let mut buf = String::new();
                // Either read error or empty: nobody served it.
                let n = s.read_to_string(&mut buf).unwrap_or(0);
                assert_eq!(n, 0, "dropped server still answered: {buf}");
            }
        }
    }
}
