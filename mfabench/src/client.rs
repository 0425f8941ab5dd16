//! The benchmark's own HTTP/1.1 client over a raw socket.
//!
//! The service answers one request per connection and closes it, so an
//! exchange is connect → send → wait for the first byte → read to EOF.
//! Each boundary is stamped, which splits a request's latency into the
//! `serve.connect_ms`, `serve.send_ms`, `serve.wait_ms` and
//! `serve.recv_ms` layers without touching the program.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bound on every socket read and write; a stalled exchange fails
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One finished exchange with its phase boundaries.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Response body (everything after the head).
    pub body: Vec<u8>,
    /// Before `connect`.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Whole request written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// First complete body line read (the first event of a streamed
    /// NDJSON response); `done` when the body has no newline.
    pub first_line: Instant,
    /// Server closed the connection.
    pub done: Instant,
}

impl Exchange {
    /// The body as text (lossy), for error messages.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Serializes a request with `content-length` and `connection: close`.
pub fn build_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Sends a prebuilt request and reads the response to EOF.
///
/// # Errors
///
/// Returns a description of a transport failure or a malformed head.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(64 << 10);
    let mut buf = vec![0u8; 64 << 10];
    let mut first_byte = None;
    let mut first_line = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        first_byte.get_or_insert(now);
        raw.extend_from_slice(&buf[..n]);
        if first_line.is_none() && body_has_line(&raw) {
            first_line = Some(now);
        }
    }
    let done = Instant::now();
    let first_byte = first_byte.ok_or("connection closed without a response")?;
    let (status, body) = parse_response(raw)?;
    Ok(Exchange {
        status,
        body,
        start,
        connected,
        sent,
        first_byte,
        first_line: first_line.unwrap_or(done),
        done,
    })
}

/// Whether `raw` holds a complete head and at least one body line.
fn body_has_line(raw: &[u8]) -> bool {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .is_some_and(|end| raw[end + 4..].contains(&b'\n'))
}

/// Splits a raw response into its status code and body.
fn parse_response(mut raw: Vec<u8>) -> Result<(u16, Vec<u8>), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response head is not terminated")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let content_length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    let body = raw.split_off(head_end + 4);
    if let Some(len) = content_length {
        if body.len() != len {
            return Err(format!("body of {} bytes, head says {len}", body.len()));
        }
    }
    Ok((status, body))
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_checks_length() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nconnection: close\r\n\r\nabc".to_vec();
        assert_eq!(parse_response(raw).unwrap(), (200, b"abc".to_vec()));
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nabc".to_vec();
        assert!(parse_response(short).is_err());
        let stream = b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n{}\n{}\n".to_vec();
        assert_eq!(parse_response(stream).unwrap().1, b"{}\n{}\n".to_vec());
    }
}
