//! HTTP clients for the advisory server: a persistent keep-alive
//! [`Client`] (what the benchmark's served workloads drive, with any
//! [`ClientConfig`]) and the one-shot [`http_request`] helper tests and
//! smoke checks have always used.
//!
//! Both are dependency-free and both are **bounded in time**: every
//! connect, read and write carries a timeout, so a stalled or silent
//! server produces a `TimedOut` error instead of hanging the caller
//! forever (the original one-shot helper had no deadline at all).
//! Sockets are opened with `TCP_NODELAY` — request and response are
//! each one small write, exactly the shape Nagle's algorithm delays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a response head (status line + headers) the clients
/// will buffer.
const MAX_RESPONSE_HEAD: usize = 64 * 1024;

/// Upper bound on a response body the clients will allocate for: the
/// wire client's frame bound ([`crate::wire::MAX_RESPONSE_PAYLOAD`]), so
/// neither transport sizes a buffer on the server's word alone.
const MAX_RESPONSE_BODY: usize = crate::wire::MAX_RESPONSE_PAYLOAD as usize;

/// Timeouts and socket options for [`Client`] (the one-shot
/// [`http_request`] uses the defaults).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-read socket deadline while receiving a response.
    pub read_timeout: Duration,
    /// Per-write socket deadline while sending a request.
    pub write_timeout: Duration,
    /// Set `TCP_NODELAY` on the socket (on by default: advice exchanges
    /// are small request/response pairs, the worst case for Nagle).
    pub nodelay: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            nodelay: true,
        }
    }
}

impl ClientConfig {
    /// One duration for connect, read and write alike.
    pub fn with_timeout(timeout: Duration) -> ClientConfig {
        ClientConfig {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
            nodelay: true,
        }
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// `Content-Length`-framed body.
    pub body: String,
    /// Whether the server will keep the connection open (`Connection:
    /// keep-alive`). When false the client drops its socket and the
    /// next request reconnects.
    pub keep_alive: bool,
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Resolve `addr` and connect within `config`'s deadline, applying the
/// configured socket options. Shared with the binary-protocol client
/// ([`crate::wire::WireConn`]) so both transports get identical
/// connect/read/write deadlines and `TCP_NODELAY` handling.
pub(crate) fn connect(addr: &SocketAddr, config: &ClientConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, config.connect_timeout)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    if config.nodelay {
        stream.set_nodelay(true)?;
    }
    Ok(stream)
}

/// Write one request. `connection` is the `Connection:` header value.
fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &str,
    connection: &str,
) -> std::io::Result<()> {
    // One buffer, one `write_all` — see `http::write_response`.
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: charles\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

/// Read one CRLF-terminated header line, bounded by `budget`.
fn read_head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> std::io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before a response arrived",
                    ));
                }
                break;
            }
            _ => {
                if *budget == 0 {
                    return Err(invalid("response head too large"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| invalid("non-UTF-8 response head"))
}

/// Parse one `Content-Length`-framed response off a buffered reader.
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<Response> {
    let mut budget = MAX_RESPONSE_HEAD;
    let status_line = read_head_line(reader, &mut budget)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line: {status_line:?}")))?;
    let mut content_length = 0usize;
    // The server states its intent on every response; absent a header,
    // assume close (the conservative reading for a one-shot exchange).
    let mut keep_alive = false;
    loop {
        let line = read_head_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad Content-Length: {value:?}")))?;
                if content_length > MAX_RESPONSE_BODY {
                    return Err(invalid(format!(
                        "Content-Length {content_length} exceeds the {MAX_RESPONSE_BODY}-byte limit"
                    )));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 response body"))?;
    Ok(Response {
        status,
        body,
        keep_alive,
    })
}

/// A persistent keep-alive client: one TCP connection reused across
/// requests, reconnecting transparently when the server closes it
/// (request budget exhausted, idle reap, restart).
///
/// Not thread-safe by design — a connection is a serial request/response
/// pipe. Load generators hold one `Client` per worker.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<BufReader<TcpStream>>,
    requests: u64,
    connects: u64,
}

impl Client {
    /// Resolve `addr` once and prepare a client (no connection is opened
    /// until the first request).
    pub fn new(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| invalid("address resolved to nothing"))?;
        Ok(Client {
            addr,
            config,
            conn: None,
            requests: 0,
            connects: 0,
        })
    }

    /// Total requests successfully exchanged.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// TCP connections opened so far (1 for a fully reused connection;
    /// each server-side close or transport error adds one).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    fn ensure_conn(&mut self) -> std::io::Result<(&mut BufReader<TcpStream>, bool)> {
        match self.conn {
            Some(ref mut conn) => Ok((conn, false)),
            None => {
                let stream = connect(&self.addr, &self.config)?;
                self.connects += 1;
                Ok((self.conn.insert(BufReader::new(stream)), true))
            }
        }
    }

    /// Issue one request over the persistent connection.
    ///
    /// A failure on a *reused* connection is retried once on a fresh
    /// one: the server may have legitimately closed the socket between
    /// requests (idle deadline) and the race is only observable as a
    /// reset on the next write or read. Failures on a fresh connection
    /// are returned as-is — including `TimedOut` when the server
    /// accepts but never answers within the read deadline.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        match self.request_once(method, path, body) {
            Ok(resp) => Ok(resp),
            Err((e, reused)) => {
                if !reused {
                    return Err(e);
                }
                self.request_once(method, path, body).map_err(|(e, _)| e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Response, (std::io::Error, bool)> {
        let (conn, fresh) = self.ensure_conn().map_err(|e| (e, false))?;
        let reused = !fresh;
        let exchange = (|| {
            write_request(conn.get_mut(), method, path, body, "keep-alive")?;
            read_response(conn)
        })();
        match exchange {
            Ok(resp) => {
                self.requests += 1;
                if !resp.keep_alive {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                // Whatever went wrong, the connection's framing is no
                // longer trustworthy.
                self.conn = None;
                Err((e, reused))
            }
        }
    }
}

/// Issue one request on a throwaway connection (`Connection: close`)
/// and return `(status, body)`, with the default [`ClientConfig`]
/// deadlines applied (a stalled server times out instead of hanging
/// forever). Other deadlines are a [`Client`]'s.
///
/// `method` is sent verbatim (the server decides what it supports); the
/// body, when non-empty, is framed with `Content-Length`.
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| invalid("address resolved to nothing"))?;
    let stream = connect(&addr, &ClientConfig::default())?;
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), method, path, body, "close")?;
    let resp = read_response(&mut reader)?;
    Ok((resp.status, resp.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::CountingWriter;

    #[test]
    fn a_request_is_one_write() {
        // Both callers pass the bare `TcpStream`: one `write` here is
        // one `send(2)`, one segment under `TCP_NODELAY`.
        for body in ["(kind: , size: )", ""] {
            let mut out = CountingWriter::default();
            write_request(&mut out, "POST", "/session", body, "keep-alive").unwrap();
            assert_eq!(out.writes, 1, "body {body:?}");
            let text = String::from_utf8(out.bytes).unwrap();
            assert!(text.starts_with("POST /session HTTP/1.1\r\n"), "{text}");
            assert!(
                text.contains(&format!("Content-Length: {}\r\n", body.len())),
                "{text}"
            );
            assert!(text.ends_with(&format!("\r\n\r\n{body}")), "{text}");
        }
    }
}
