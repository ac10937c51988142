//! A minimal, panic-free HTTP/1.1 request parser and response writer.
//!
//! Only what the advisory protocol needs: `GET`/`POST`/`DELETE`, a
//! `Content-Length`-framed body, and standard `Connection` semantics —
//! HTTP/1.1 connections persist by default (the server loops reading
//! requests until the client asks to close or an idle deadline fires),
//! HTTP/1.0 closes unless the client sends `Connection: keep-alive`.
//! Every response states its framing explicitly (`Connection:
//! keep-alive` or `Connection: close`), so conforming clients never
//! attempt to reuse a connection the server is about to reset. Every
//! malformed input path returns an [`HttpError`] with a 4xx/5xx status
//! — never a panic — which the proptest suite pins by feeding the
//! parser arbitrary bytes.

use crate::codes::ErrorCode;
use std::io::{BufRead, Write};

/// Upper bound on the request line plus all headers.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// The request methods the advisory protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Create or act on a resource.
    Post,
    /// Remove a resource.
    Delete,
}

impl Method {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// A parsed request: method, path, UTF-8 body, connection intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target, verbatim (must start with `/`). The router
    /// matches its path component and ignores any `?query`.
    pub path: String,
    /// Decoded body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless the client sent `Connection: close`, HTTP/1.0
    /// only when it sent `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Everything that can go wrong while reading a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line was not `METHOD SP PATH SP VERSION`.
    BadRequestLine(String),
    /// Method token is not GET/POST/DELETE.
    UnsupportedMethod(String),
    /// Version is not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// `Content-Length` was missing digits or duplicated inconsistently.
    BadContentLength(String),
    /// The request declared a `Transfer-Encoding` this server does not
    /// implement. Accepting and mis-framing such a body would desync a
    /// persistent connection (the chunk data would be parsed as the
    /// next request — a smuggling primitive behind proxies), so it is
    /// rejected outright per RFC 7230 §3.3.1.
    UnsupportedTransferEncoding(String),
    /// Request line + headers exceeded 8 KiB.
    HeadTooLarge,
    /// Declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The body was not valid UTF-8.
    BodyNotUtf8,
    /// The connection closed mid-request.
    UnexpectedEof,
    /// Transport error.
    Io(String),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        http_error_code(self).status()
    }
}

/// The stable machine-readable code for a transport-layer error.
pub(crate) fn http_error_code(e: &HttpError) -> ErrorCode {
    match e {
        HttpError::UnsupportedMethod(_) => ErrorCode::UnsupportedMethod,
        HttpError::UnsupportedVersion(_) => ErrorCode::UnsupportedHttpVersion,
        HttpError::UnsupportedTransferEncoding(_) => ErrorCode::UnsupportedTransferEncoding,
        HttpError::HeadTooLarge => ErrorCode::HeadTooLarge,
        HttpError::BodyTooLarge(_) => ErrorCode::BodyTooLarge,
        HttpError::BadRequestLine(_)
        | HttpError::BadHeader(_)
        | HttpError::BadContentLength(_)
        | HttpError::BodyNotUtf8
        | HttpError::UnexpectedEof
        | HttpError::Io(_) => ErrorCode::BadRequest,
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method: {m:?}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version: {v:?}"),
            HttpError::BadHeader(h) => write!(f, "malformed header: {h:?}"),
            HttpError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            HttpError::UnsupportedTransferEncoding(v) => {
                write!(f, "unsupported Transfer-Encoding: {v:?}")
            }
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "declared body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::BodyNotUtf8 => write!(f, "request body is not valid UTF-8"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Read one `\n`-terminated line without ever buffering more than
/// `budget` bytes. Returns the line with the terminator trimmed.
fn read_line_limited<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::UnexpectedEof);
                }
                break; // EOF terminates the final line
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::HeadTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::BadRequestLine("non-UTF-8 bytes".into()))
}

/// Parse one request from a buffered reader.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line_limited(reader, &mut budget)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method_tok, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(HttpError::BadRequestLine(request_line.clone())),
    };
    let method = match method_tok {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequestLine(request_line.clone()));
    }

    let mut content_length: Option<usize> = None;
    // Persistence default per version; a Connection header overrides
    // ("close" beats "keep-alive" no matter the token order).
    let mut keep_alive = version == "HTTP/1.1";
    let mut close_requested = false;
    loop {
        let line = read_line_limited(reader, &mut budget)?;
        if line.is_empty() {
            break; // end of headers
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(line));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let parsed: usize = value
                .parse()
                .map_err(|_| HttpError::BadContentLength(value.to_string()))?;
            if let Some(prev) = content_length {
                if prev != parsed {
                    return Err(HttpError::BadContentLength(format!("{prev} vs {parsed}")));
                }
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // This server only frames bodies by Content-Length; any
            // transfer coding (chunked included) would desync the
            // connection if ignored. "identity" is a no-op and legal.
            let value = value.trim();
            if !value.eq_ignore_ascii_case("identity") {
                return Err(HttpError::UnsupportedTransferEncoding(value.to_string()));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list: "close" wins over anything else; "keep-alive"
            // opts an HTTP/1.0 client in.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close_requested = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    if close_requested {
        keep_alive = false;
    }

    let body = match content_length {
        None | Some(0) => String::new(),
        Some(n) if n > MAX_BODY_BYTES => return Err(HttpError::BodyTooLarge(n)),
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    HttpError::UnexpectedEof
                } else {
                    HttpError::Io(e.to_string())
                }
            })?;
            String::from_utf8(buf).map_err(|_| HttpError::BodyNotUtf8)?
        }
    };

    Ok(Request {
        method,
        path: path.to_string(),
        body,
        keep_alive,
    })
}

/// Reason phrase for the status codes this server emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write a complete JSON response. The `Connection` header always
/// states what the server will actually do next — `keep-alive` when it
/// will read another request from this connection, `close` when it is
/// about to hang up — so conforming clients never try to reuse a
/// connection that is being torn down.
pub(crate) fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    // One buffer, one `write_all`: `write!` on the socket itself is one
    // `write` per literal piece and argument, each its own segment under
    // `TCP_NODELAY`.
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    );
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

/// A `Write` that counts `write` calls the way an unbuffered socket
/// turns them into `send(2)`s (shared with `client.rs`'s tests).
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /session HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n(kind: , s)")
                .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/session");
        assert_eq!(req.body, "(kind: , s)");
        assert!(req.keep_alive, "HTTP/1.1 persists by default");
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let req = parse(b"GET /session/s1 HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/session/s1");
        assert_eq!(req.body, "");
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        // HTTP/1.1 defaults to keep-alive; Connection: close opts out.
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n")
                .unwrap()
                .keep_alive,
            "token match is case-insensitive"
        );
        // HTTP/1.0 defaults to close; Connection: keep-alive opts in.
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // "close" wins regardless of token order.
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: close, keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse(b"GET / HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse(b"\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET nopath HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_unsupported_method_and_version() {
        assert!(matches!(
            parse(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(HttpError::BodyTooLarge(_))
        ));
        // Body shorter than declared.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::UnexpectedEof)
        ));
        // Conflicting duplicates.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab"),
            Err(HttpError::BadContentLength(_))
        ));
    }

    #[test]
    fn accepts_agreeing_duplicate_content_lengths() {
        // RFC 7230 §3.3.2: repeated Content-Length headers whose values
        // all agree are treated as one; only *inconsistent* duplicates
        // are invalid (rejected above).
        let req =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab").unwrap();
        assert_eq!(req.body, "ab");
        // Agreement is on the parsed value, not the spelling.
        let req =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 02\r\nContent-Length: 2\r\n\r\nab").unwrap();
        assert_eq!(req.body, "ab");
        // Three-way agreement still frames one body.
        let req = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
        )
        .unwrap();
        assert_eq!(req.body, "ab");
    }

    #[test]
    fn rejects_transfer_encodings() {
        // Chunked (or any non-identity coding) must be rejected, not
        // silently mis-framed — on a persistent connection the chunk
        // data would otherwise be read as the next request.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding(_))
        ));
        assert_eq!(
            HttpError::UnsupportedTransferEncoding("chunked".into()).status(),
            501
        );
        // "identity" is a no-op and stays accepted.
        let req =
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn rejects_oversized_head() {
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        req.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(parse(&req), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_non_utf8_body() {
        let mut req = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        req.extend([0xff, 0xfe]);
        assert!(matches!(parse(&req), Err(HttpError::BodyNotUtf8)));
    }

    #[test]
    fn empty_input_is_eof() {
        assert!(matches!(parse(b""), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn status_lines_render() {
        let mut out = Vec::new();
        write_response(&mut out, 201, "{\"x\":1}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn a_response_is_one_write() {
        // The listener hands `write_response` the bare `TcpStream`, so
        // every `write` here is a `send(2)` — and, under the
        // `TCP_NODELAY` the server sets, a segment of its own.
        for (status, body) in [(200, "{\"x\":1}"), (204, "")] {
            let mut out = CountingWriter::default();
            write_response(&mut out, status, body, true).unwrap();
            assert_eq!(out.writes, 1, "status {status}");
            assert!(out.bytes.ends_with(body.as_bytes()));
        }
    }

    #[test]
    fn responses_always_state_their_connection_framing() {
        // The header must match what the server will do: close on the
        // last response of a connection, keep-alive otherwise. (The bug
        // this pins: a server that closes after every response but
        // never says so invites conforming clients to reuse the
        // connection and hit resets.)
        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nConnection: close\r\n"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nConnection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn error_statuses_are_4xx_5xx() {
        for e in [
            HttpError::BadRequestLine("x".into()),
            HttpError::UnsupportedMethod("x".into()),
            HttpError::UnsupportedVersion("x".into()),
            HttpError::BadHeader("x".into()),
            HttpError::BadContentLength("x".into()),
            HttpError::UnsupportedTransferEncoding("chunked".into()),
            HttpError::HeadTooLarge,
            HttpError::BodyTooLarge(9),
            HttpError::BodyNotUtf8,
            HttpError::UnexpectedEof,
            HttpError::Io("x".into()),
        ] {
            assert!((400..=599).contains(&e.status()), "{e}");
        }
    }
}
