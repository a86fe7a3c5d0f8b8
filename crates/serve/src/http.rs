//! A minimal HTTP/1.1 layer over `std::net` (the environment is offline,
//! so hyper/axum are unavailable — and the server needs only three routes).
//!
//! Scope: `Content-Length` bodies, one request per connection
//! (`Connection: close` is always sent), bounded header and body sizes so
//! malformed peers cannot exhaust memory. No TLS, chunked encoding, or
//! keep-alive — this is an internal inference endpoint, not an edge proxy.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum accepted size of the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request-body size (batched predictions with inline
/// kernel sources fit comfortably).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Per-connection read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path only; queries are not split off).
    pub path: String,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed — mapped to a 4xx by the server.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending a full request head.
    Closed,
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Head or body exceeded the configured bounds.
    TooLarge(&'static str),
    /// Socket failure or timeout.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Closed => write!(f, "connection closed"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge(what) => write!(f, "request too large: {what}"),
            ParseError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

/// Reads and parses one request from a connection.
///
/// # Errors
///
/// [`ParseError`] describing the violation; [`ParseError::Closed`] for a
/// clean EOF before any byte.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    read_line_bounded(&mut reader, &mut line, MAX_HEAD_BYTES)?;
    if line.is_empty() {
        return Err(ParseError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("not HTTP/1.x"));
    }

    let mut content_length = 0usize;
    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        read_line_bounded(&mut reader, &mut header, MAX_HEAD_BYTES)?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge("headers"));
        }
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad Content-Length"))?;
            }
            headers.push((name, value));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge("body"));
    }

    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(e.kind()))?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads one CRLF/LF-terminated line, stripped, bounded by `max` bytes.
fn read_line_bounded(
    reader: &mut BufReader<&mut TcpStream>,
    out: &mut String,
    max: usize,
) -> Result<(), ParseError> {
    let mut raw = Vec::new();
    let mut limited = reader.by_ref().take(max as u64 + 1);
    limited
        .read_until(b'\n', &mut raw)
        .map_err(|e| ParseError::Io(e.kind()))?;
    if raw.len() > max {
        return Err(ParseError::TooLarge("line"));
    }
    while matches!(raw.last(), Some(b'\n' | b'\r')) {
        raw.pop();
    }
    *out = String::from_utf8(raw).map_err(|_| ParseError::Malformed("non-UTF-8 header"))?;
    Ok(())
}

/// Writes a complete response and flushes.
///
/// # Errors
///
/// Propagates socket failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with(stream, status, reason, content_type, &[], body)
}

/// As [`write_response`], with extra response headers (e.g. the
/// `x-qor-trace` echo). Header names/values must already be valid HTTP
/// tokens — the caller controls both.
///
/// # Errors
///
/// Propagates socket failures.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A one-shot std-only HTTP client: sends one request, returns
/// `(status, body)`.
///
/// This exists because the CI environment has no `curl`; the server smoke
/// tests and `qor-serve --self-test` drive the server through it.
///
/// # Errors
///
/// Propagates connection failures; a malformed response surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn client_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let (status, _, body) = client_request_with(addr, method, path, body, &[])?;
    Ok((status, body))
}

/// Full client response: status code, headers (names lowercased), body.
pub type ClientResponse = (u16, Vec<(String, String)>, String);

/// As [`client_request`], with extra request headers; also returns the
/// response headers (names lowercased) so tests can assert on the
/// `x-qor-trace` echo.
///
/// # Errors
///
/// As [`client_request`].
pub fn client_request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, rest) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, rest.to_string()))
}
