//! The workspace's one HTTP/1.1 layer over `std::net`: a head parser
//! shared by requests and responses, `Content-Length` body framing, one
//! request writer and one response writer, the keep-alive client
//! connection the router and the load clients use, and the
//! thread-per-connection [`serve`] loop the server and the router run.
//! Just enough for a JSON service: keep-alive, pipelined requests
//! answered in order one at a time, no chunked encoding, no TLS.
//!
//! Inputs come off the network, so everything is bounded in both
//! directions: head lines and header counts are capped, request bodies
//! are capped at [`MAX_BODY`] (the caller gets a clean 413) and response
//! bodies at [`MAX_RESPONSE_BODY`], a request must arrive within
//! [`REQUEST_DEADLINE`] of its first byte (408 otherwise), and malformed
//! framing produces an error instead of a hang.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted request body (1 MiB — JSON requests are tiny).
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted response body (8 MiB — headroom for large netlist
/// responses relayed by the router).
pub const MAX_RESPONSE_BODY: usize = 8 << 20;
/// Largest accepted start line or header line.
pub const MAX_LINE: usize = 8 << 10;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;
/// How long a request may take to arrive once its first byte is in; a
/// slower client is answered 408 and closed.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// The server's socket read timeout: how often a connection waiting for
/// its next request looks at the drain flag.
const DRAIN_TICK: Duration = Duration::from_millis(200);
/// Accept backoff: a fixed sleep on `WouldBlock` stalls connections that
/// arrive just after the loop dozes off — under a bursty loadtest that
/// backlog stacked up into a ~70 ms p99 tail. Stay hot (100 µs) right
/// after activity and only decay to the 5 ms idle tick when the listener
/// stays quiet.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(100);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(5);

type Headers = Vec<(String, String)>;

/// The first header with this (lowercase) name.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// The path, e.g. `/v1/gate/eval` (query strings are not split off —
    /// the API doesn't use them).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Headers,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// True if the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A JSON response: what a [`Handler`] answers, and what
/// [`Conn::request`] reads back.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lowercase. The writer adds the
    /// framing headers (`content-type`, `content-length`, `connection`)
    /// itself; a response read back carries every header it was sent.
    pub headers: Headers,
    /// The exact body bytes (JSON bodies end in a newline).
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response. The body gains a trailing newline so `curl`
    /// output ends cleanly; `content-length` counts it.
    pub fn json(status: u16, body: &str) -> Response {
        let mut bytes = Vec::with_capacity(body.len() + 1);
        bytes.extend_from_slice(body.as_bytes());
        bytes.push(b'\n');
        Response {
            status,
            headers: Vec::new(),
            body: bytes,
        }
    }

    /// A ready-made `{"error": ...}` response.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &error_body(message))
    }

    /// This response with one more header, e.g. `("x-cache", "ram")`.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as text without the JSON body's trailing newline (empty
    /// if the body is not UTF-8).
    pub fn text(&self) -> &str {
        let text = std::str::from_utf8(&self.body).unwrap_or("");
        text.strip_suffix('\n').unwrap_or(text)
    }

    /// True if the sender said it keeps the connection open.
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// Why a message could not be read (or a request not sent).
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before (or between) messages.
    Closed,
    /// No byte of a next message arrived within the socket's read
    /// timeout (an idle keep-alive tick on the server; retry or close).
    TimedOut,
    /// A request started but did not complete within
    /// [`REQUEST_DEADLINE`]; answer 408.
    Deadline,
    /// The message is malformed; the text is safe to echo in a 400.
    Malformed(String),
    /// The body exceeds its bound; answer 413.
    BodyTooLarge,
    /// An underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::TimedOut => write!(f, "timed out waiting for a message"),
            ReadError::Deadline => write!(f, "message not complete within the deadline"),
            ReadError::Malformed(message) => write!(f, "malformed message: {message}"),
            ReadError::BodyTooLarge => write!(f, "body too large"),
            ReadError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

fn malformed(message: &str) -> ReadError {
    ReadError::Malformed(message.to_string())
}

/// One HTTP/1.1 connection, either side. The buffered reader lives as
/// long as the socket, so bytes of a pipelined next message that arrive
/// with the current one are kept for the next read, not dropped.
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Server side: how long a started request may take, across read
    /// timeouts. `None` on the client side, where a read timeout is an
    /// error.
    deadline: Option<Duration>,
}

impl Conn {
    /// Dials `addr` as a keep-alive client connection.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            deadline: None,
        })
    }

    fn accepted(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_read_timeout(Some(DRAIN_TICK))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            deadline: Some(REQUEST_DEADLINE),
        })
    }

    /// Sends one JSON request and reads its response; the connection
    /// stays usable while responses say `connection: keep-alive`.
    ///
    /// # Errors
    ///
    /// Write failures as [`ReadError::Io`]; the rest as [`ReadError`]
    /// for the response, bounded by [`MAX_RESPONSE_BODY`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, ReadError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: swserve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.send(head, body).map_err(ReadError::Io)?;
        let (status, headers, body) = self.read_message(MAX_RESPONSE_BODY, |line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
                    .parse::<u16>()
                    .map_err(|_| ReadError::Malformed(format!("bad status in `{line}`"))),
                _ => Err(ReadError::Malformed(format!("bad status line `{line}`"))),
            }
        })?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// Reads one request. Blocks until a request arrives, the socket's
    /// read timeout passes with no byte of one, or the peer disconnects.
    fn read_request(&mut self) -> Result<Request, ReadError> {
        let ((method, path), headers, body) = self.read_message(MAX_BODY, |line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(method), Some(path), Some(version)) if version.starts_with("HTTP/1.") => {
                    Ok((method.to_string(), path.to_string()))
                }
                _ => Err(ReadError::Malformed(format!("bad request line `{line}`"))),
            }
        })?;
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }

    /// Writes one JSON response.
    fn write_response(&mut self, response: &Response, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            response.status,
            reason(response.status),
            response.body.len()
        );
        for (name, value) in &response.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        self.send(head, &response.body)
    }

    /// Writes a head and body in one piece.
    fn send(&mut self, head: String, body: &[u8]) -> std::io::Result<()> {
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body);
        let stream = self.reader.get_mut();
        stream.write_all(&raw)?;
        stream.flush()
    }

    /// Reads one message: a start line (parsed by `start`), at most
    /// [`MAX_HEADERS`] headers, and a `Content-Length` body of at most
    /// `max_body` bytes.
    fn read_message<T>(
        &mut self,
        max_body: usize,
        start: impl FnOnce(&str) -> Result<T, ReadError>,
    ) -> Result<(T, Headers, Vec<u8>), ReadError> {
        let mut began = None;
        let start = start(&self.read_line(&mut began)?)?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line(&mut began)?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(malformed("too many headers"));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Malformed(format!("bad header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let length = match find_header(&headers, "content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| ReadError::Malformed(format!("bad content-length `{v}`")))?,
        };
        if length > max_body {
            return Err(ReadError::BodyTooLarge);
        }
        let mut body = Vec::with_capacity(length);
        while body.len() < length {
            let buffered = self.fill(began)?;
            if buffered.is_empty() {
                return Err(malformed("truncated body"));
            }
            let take = buffered.len().min(length - body.len());
            body.extend_from_slice(&buffered[..take]);
            self.reader.consume(take);
        }
        Ok((start, headers, body))
    }

    /// Reads one CRLF- (or LF-) terminated head line of at most
    /// [`MAX_LINE`] bytes. `began` records when the message's first byte
    /// arrived.
    fn read_line(&mut self, began: &mut Option<Instant>) -> Result<String, ReadError> {
        let mut line = Vec::new();
        loop {
            let buffered = self.fill(*began)?;
            if buffered.is_empty() {
                return Err(match began {
                    None => ReadError::Closed,
                    Some(_) => malformed("truncated head"),
                });
            }
            began.get_or_insert_with(Instant::now);
            let newline = buffered.iter().position(|&b| b == b'\n');
            let take = newline.map_or(buffered.len(), |at| at + 1);
            line.extend_from_slice(&buffered[..take]);
            self.reader.consume(take);
            if line.len() - usize::from(newline.is_some()) > MAX_LINE {
                return Err(malformed("head line too long"));
            }
            if newline.is_some() {
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| malformed("non-UTF-8 in head"));
            }
        }
    }

    /// The buffered bytes, reading more when none are buffered; empty at
    /// end of stream. Before a message's first byte (`began` is `None`) a
    /// read timeout is [`ReadError::TimedOut`]; after it, a server
    /// connection keeps reading until its deadline.
    fn fill(&mut self, began: Option<Instant>) -> Result<&[u8], ReadError> {
        loop {
            match self.reader.fill_buf() {
                Ok(_) => return Ok(self.reader.buffer()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    match (began, self.deadline) {
                        (None, _) => return Err(ReadError::TimedOut),
                        (Some(began), Some(deadline)) if began.elapsed() < deadline => {}
                        (Some(_), Some(_)) => return Err(ReadError::Deadline),
                        (Some(_), None) => return Err(ReadError::Io(e)),
                    }
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A ready-made `{"error": ...}` body.
fn error_body(message: &str) -> String {
    swjson::Json::obj([("error", swjson::Json::str(message))]).render()
}

/// What a [`serve`] loop runs: one response per request.
pub trait Handler: Sync {
    /// Answers one request.
    fn handle(&self, request: &Request) -> Response;

    /// Called once per accepted connection.
    fn connected(&self) {}
}

/// Serves `listener` until `drain` is set: nonblocking accept with
/// backoff, one thread per connection, keep-alive. Then stops accepting
/// and returns once every open connection has finished — idle ones
/// notice the flag within one 200 ms read tick, busy ones close after
/// their in-flight request.
///
/// # Errors
///
/// Listener failures only; they set `drain` so open connections finish
/// before the error returns. Per-connection errors, and handler panics,
/// cost only their connection.
pub fn serve(
    listener: &TcpListener,
    drain: &AtomicBool,
    handler: &impl Handler,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    thread::scope(|scope| {
        let mut backoff = ACCEPT_BACKOFF_MIN;
        while !drain.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    handler.connected();
                    scope.spawn(move || {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            serve_connection(stream, drain, handler);
                        }));
                    });
                    backoff = ACCEPT_BACKOFF_MIN;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    drain.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
        Ok(())
    })
}

/// Answers requests on one connection, in order, until the client
/// closes, asks to close, sends something unanswerable, or a drain
/// begins.
fn serve_connection(stream: TcpStream, drain: &AtomicBool, handler: &impl Handler) {
    let Ok(mut conn) = Conn::accepted(stream) else {
        return;
    };
    loop {
        let request = match conn.read_request() {
            Ok(request) => request,
            Err(ReadError::TimedOut) if !drain.load(Ordering::SeqCst) => continue,
            Err(error) => {
                let refusal = match error {
                    ReadError::Malformed(message) => Response::error(400, &message),
                    ReadError::BodyTooLarge => Response::error(413, "body too large"),
                    ReadError::Deadline => Response::error(408, "request not received in time"),
                    _ => return,
                };
                let _ = conn.write_response(&refusal, false);
                return;
            }
        };
        // Decided before handling, so the request that starts a drain is
        // still answered keep-alive; the next read tick closes.
        let close = request.wants_close() || drain.load(Ordering::SeqCst);
        let response = handler.handle(&request);
        if conn.write_response(&response, !close).is_err() || close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (client.join().unwrap(), Conn::accepted(server).unwrap())
    }

    #[test]
    fn parses_a_post_with_body() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/gate/eval HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        let request = server.read_request().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/gate/eval");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(!request.wants_close());
    }

    #[test]
    fn rejects_malformed_framing() {
        let cases: &[&[u8]] = &[
            b"NONSENSE\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: hat\r\n\r\n",
        ];
        for case in cases {
            let (mut client, mut server) = pair();
            client.write_all(case).unwrap();
            drop(client);
            assert!(
                matches!(server.read_request(), Err(ReadError::Malformed(_))),
                "{} must be malformed",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn rejects_oversized_bodies_cleanly() {
        let (mut client, mut server) = pair();
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        client.write_all(head.as_bytes()).unwrap();
        assert!(matches!(
            server.read_request(),
            Err(ReadError::BodyTooLarge)
        ));
    }

    #[test]
    fn eof_before_any_request_is_closed() {
        let (client, mut server) = pair();
        drop(client);
        assert!(matches!(server.read_request(), Err(ReadError::Closed)));
    }

    #[test]
    fn truncated_body_is_malformed_not_a_hang() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
            .unwrap();
        drop(client);
        assert!(matches!(
            server.read_request(),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn written_responses_parse_back() {
        let (mut client, mut server) = pair();
        let response = Response::json(200, r#"{"ok":true}"#).with_header("x-cache", "hit");
        server.write_response(&response, true).unwrap();
        drop(server);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("x-cache: hit\r\n") || raw.contains("X-Cache: hit\r\n"));
        assert!(raw.ends_with("{\"ok\":true}\n"), "{raw}");
    }

    #[test]
    fn error_body_is_json() {
        let body = error_body("no such gate");
        assert_eq!(body, r#"{"error":"no such gate"}"#);
    }

    /// Answers `{"body":...,"path":...}`.
    struct Echo;

    impl Handler for Echo {
        fn handle(&self, request: &Request) -> Response {
            let body = String::from_utf8_lossy(&request.body).into_owned();
            let echo = swjson::Json::obj([
                ("path", swjson::Json::str(&request.path)),
                ("body", swjson::Json::str(body)),
            ]);
            Response::json(200, &echo.render())
        }
    }

    /// Runs [`serve`] over [`Echo`] on an ephemeral port until the
    /// returned flag is set.
    fn echo_server() -> (SocketAddr, &'static AtomicBool, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drain: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let runner = thread::spawn(move || serve(&listener, drain, &Echo).unwrap());
        (addr, drain, runner)
    }

    /// Reads responses off a raw socket until `count` have arrived (or
    /// the peer closes); returns each one's status line and body.
    fn read_responses(stream: &mut TcpStream, count: usize) -> Vec<(String, String)> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        let mut responses = Vec::new();
        let mut chunk = [0u8; 4096];
        while responses.len() < count {
            let n = stream.read(&mut chunk).unwrap_or(0);
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&chunk[..n]);
            responses.clear();
            let mut rest = std::str::from_utf8(&raw).unwrap();
            while let Some((head, tail)) = rest.split_once("\r\n\r\n") {
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .unwrap()
                    .parse()
                    .unwrap();
                if tail.len() < length {
                    break;
                }
                let status = head.lines().next().unwrap().to_string();
                responses.push((status, tail[..length].to_string()));
                rest = &tail[length..];
            }
        }
        responses
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (addr, drain, runner) = echo_server();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(
                b"GET /first HTTP/1.1\r\n\r\nPOST /second HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi",
            )
            .unwrap();
        let responses = read_responses(&mut client, 2);
        assert_eq!(responses.len(), 2, "both pipelined requests answered");
        assert_eq!(responses[0].0, "HTTP/1.1 200 OK");
        assert_eq!(responses[0].1, "{\"body\":\"\",\"path\":\"/first\"}\n");
        assert_eq!(responses[1].1, "{\"body\":\"hi\",\"path\":\"/second\"}\n");
        drain.store(true, Ordering::SeqCst);
        runner.join().unwrap();
    }

    #[test]
    fn a_head_split_by_a_pause_is_still_answered() {
        let (addr, drain, runner) = echo_server();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"POST /slow HTTP/1.1\r\ncont").unwrap();
        thread::sleep(Duration::from_millis(400));
        client.write_all(b"ent-length: 2\r\n\r\nok").unwrap();
        let responses = read_responses(&mut client, 1);
        assert_eq!(responses[0].0, "HTTP/1.1 200 OK");
        assert_eq!(responses[0].1, "{\"body\":\"ok\",\"path\":\"/slow\"}\n");
        drain.store(true, Ordering::SeqCst);
        runner.join().unwrap();
    }

    #[test]
    fn a_body_split_by_a_pause_is_still_answered() {
        let (addr, drain, runner) = echo_server();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST /slow HTTP/1.1\r\ncontent-length: 4\r\n\r\nha")
            .unwrap();
        thread::sleep(Duration::from_millis(400));
        client.write_all(b"lf").unwrap();
        let responses = read_responses(&mut client, 1);
        assert_eq!(responses[0].0, "HTTP/1.1 200 OK");
        assert_eq!(responses[0].1, "{\"body\":\"half\",\"path\":\"/slow\"}\n");
        drain.store(true, Ordering::SeqCst);
        runner.join().unwrap();
    }

    #[test]
    fn a_body_stalled_past_the_deadline_gets_408_and_a_close() {
        let (addr, drain, runner) = echo_server();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST /stall HTTP/1.1\r\ncontent-length: 4\r\n\r\nha")
            .unwrap();
        let started = Instant::now();
        let responses = read_responses(&mut client, 1);
        assert!(started.elapsed() >= REQUEST_DEADLINE - DRAIN_TICK);
        assert_eq!(responses[0].0, "HTTP/1.1 408 Request Timeout");
        let mut rest = Vec::new();
        assert_eq!(
            client.read_to_end(&mut rest).unwrap(),
            0,
            "closed after 408"
        );
        drain.store(true, Ordering::SeqCst);
        runner.join().unwrap();
    }

    #[test]
    fn idle_connections_notice_a_drain_within_a_tick() {
        let (addr, drain, runner) = echo_server();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_responses(&mut client, 1).len(), 1);
        let started = Instant::now();
        drain.store(true, Ordering::SeqCst);
        runner.join().unwrap();
        assert!(
            started.elapsed() < DRAIN_TICK * 3,
            "{:?}",
            started.elapsed()
        );
        let mut rest = Vec::new();
        assert_eq!(client.read_to_end(&mut rest).unwrap(), 0);
    }
}
