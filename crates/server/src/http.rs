//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! The no-new-dependencies policy rules out hyper/axum, and this service
//! needs very little from HTTP: framed request/response pairs with
//! keep-alive, hard size limits on untrusted input, and deterministic
//! error responses. So the framing layer is hand-rolled and deliberately
//! small: one buffered connection type, one request parser, one response
//! writer. No chunked transfer encoding (requests carrying a body must
//! send `Content-Length`; anything carrying `Transfer-Encoding` is
//! rejected with 400; responses always send `Content-Length`), no
//! `Expect: continue`, no trailers, no TLS.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers before the connection is
/// rejected with 431. Generous: real requests are a few hundred bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Upper-case method token as sent (`GET`, `POST`, `DELETE`, …).
    pub(crate) method: String,
    /// Path component only: no route reads a query string, so any is
    /// dropped.
    pub(crate) path: String,
    /// Header name/value pairs, names lower-cased, values trimmed.
    pub(crate) headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub(crate) body: Vec<u8>,
    /// Whether the request line said `HTTP/1.0`.
    http10: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (explicit `Connection: close`, or HTTP/1.0 without
    /// `keep-alive`).
    ///
    /// The Connection header is a comma-separated token list
    /// (`Connection: close` but also `Connection: keep-alive, TE`), so
    /// the check walks tokens instead of comparing the whole value — a
    /// proxy-normalized `close, te` must still close.
    /// `close` wins over `keep-alive` regardless of token order, so the
    /// whole list is scanned before `keep-alive` is honored.
    pub(crate) fn wants_close(&self) -> bool {
        let tokens = self
            .headers
            .iter()
            .filter(|(n, _)| n == "connection")
            .flat_map(|(_, v)| v.split(','))
            .map(str::trim);
        let mut keep_alive = false;
        for token in tokens {
            if token.eq_ignore_ascii_case("close") {
                return true;
            }
            if token.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
        self.http10 && !keep_alive
    }
}

/// Why [`HttpConn::read_request`] produced no request.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A full request was framed.
    Request(Request),
    /// The peer closed (or idled past the read timeout) between requests
    /// — normal end of a keep-alive connection, nothing to answer.
    Closed,
    /// The bytes on the wire were not a framable request; the connection
    /// must be answered with this status and closed.
    Malformed {
        /// Status to answer with (400, 408, 413, or 431).
        status: u16,
        /// Human-readable reason, returned in the error body.
        reason: String,
    },
}

/// A buffered connection: bytes read past the end of one request are kept
/// for the next (pipelined or keep-alive) request.
#[derive(Debug)]
pub(crate) struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Wraps an accepted stream, arming the idle read timeout.
    pub(crate) fn new(stream: TcpStream, read_timeout: Duration) -> HttpConn {
        // A dead timeout would mean blocking forever on an idle client;
        // errors here leave the OS default, which read() surfaces later.
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        HttpConn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads one request, enforcing `MAX_HEAD_BYTES` on the head and
    /// `max_body_bytes` on the body.
    pub(crate) fn read_request(&mut self, max_body_bytes: usize) -> ReadOutcome {
        // Pull bytes until the blank line that ends the head.
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return ReadOutcome::Malformed {
                    status: 431,
                    reason: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                };
            }
            match self.fill() {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return ReadOutcome::Closed;
                    }
                    return ReadOutcome::Malformed {
                        status: 400,
                        reason: "connection closed mid-request".to_string(),
                    };
                }
                Ok(_) => {}
                // Timeout on a partially-read head is a stalled client;
                // on an empty buffer it is just an idle keep-alive.
                Err(_) if self.buf.is_empty() => return ReadOutcome::Closed,
                Err(_) => {
                    return ReadOutcome::Malformed {
                        status: 408,
                        reason: "timed out mid-request".to_string(),
                    }
                }
            }
        };
        let head = match std::str::from_utf8(&self.buf[..head_end.line_end]) {
            Ok(head) => head,
            Err(_) => {
                return ReadOutcome::Malformed {
                    status: 400,
                    reason: "request head is not UTF-8".to_string(),
                }
            }
        };
        let mut request = match parse_head(head) {
            Ok(request) => request,
            Err(reason) => {
                return ReadOutcome::Malformed {
                    status: 400,
                    reason,
                }
            }
        };
        let body_len = match body_length(&request) {
            Ok(n) => n,
            Err(reason) => {
                return ReadOutcome::Malformed {
                    status: 400,
                    reason,
                }
            }
        };
        if body_len > max_body_bytes {
            return ReadOutcome::Malformed {
                status: 413,
                reason: format!("request body of {body_len} bytes exceeds {max_body_bytes}"),
            };
        }
        // Consume the head, then read the declared body length.
        self.buf.drain(..head_end.total);
        while self.buf.len() < body_len {
            match self.fill() {
                Ok(0) => {
                    return ReadOutcome::Malformed {
                        status: 400,
                        reason: "connection closed mid-body".to_string(),
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    return ReadOutcome::Malformed {
                        status: 408,
                        reason: "timed out reading request body".to_string(),
                    }
                }
            }
        }
        request.body = self.buf.drain(..body_len).collect();
        ReadOutcome::Request(request)
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Writes one response; `close` adds `Connection: close`.
    pub(crate) fn write_response(
        &mut self,
        response: &Response,
        close: bool,
    ) -> std::io::Result<()> {
        write_response_to(&mut self.stream, response, close)
    }
}

/// End-of-head positions: `line_end` excludes the blank line, `total`
/// includes it.
struct HeadEnd {
    line_end: usize,
    total: usize,
}

/// Finds the `\r\n\r\n` (or tolerated bare `\n\n`) that ends the head.
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i + 1 < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1] == b'\n' {
                return Some(HeadEnd {
                    line_end: i + 1,
                    total: i + 2,
                });
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(HeadEnd {
                    line_end: i + 1,
                    total: i + 3,
                });
            }
        }
        i += 1;
    }
    None
}

/// The declared body length, from however many `Content-Length` headers
/// (and folded `5, 5` list members) the request carried. Every
/// declaration must agree: two conflicting lengths are a
/// request-smuggling vector — this parser and an upstream intermediary
/// could frame the body differently — so they are rejected rather than
/// arbitrating by position. Identical duplicates (a common proxy
/// artifact) are accepted.
fn body_length(request: &Request) -> Result<usize, String> {
    // This parser implements no chunked framing, so a Transfer-Encoding
    // request would be framed as zero-length and its payload parsed as
    // the next pipelined request — the same smuggling class the
    // Content-Length agreement check below closes. Reject outright.
    if request
        .headers
        .iter()
        .any(|(n, _)| n == "transfer-encoding")
    {
        return Err("Transfer-Encoding is not supported".to_string());
    }
    let mut body_len = 0usize;
    let mut seen_length = false;
    for value in request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .flat_map(|(_, v)| v.split(','))
        .map(str::trim)
    {
        let n = value
            .parse::<usize>()
            .map_err(|_| format!("unparseable Content-Length {value:?}"))?;
        if seen_length && n != body_len {
            return Err(format!(
                "conflicting Content-Length headers ({body_len} vs {n})"
            ));
        }
        body_len = n;
        seen_length = true;
    }
    Ok(body_len)
}

fn parse_head(head: &str) -> Result<Request, String> {
    let mut lines = head.lines().map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let uri = parts
        .next()
        .ok_or_else(|| format!("request line {request_line:?} has no path"))?;
    let version = parts
        .next()
        .ok_or_else(|| format!("request line {request_line:?} has no HTTP version"))?;
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => return Err(format!("unsupported protocol version {other:?}")),
    };
    let path = uri
        .split_once('?')
        .map_or(uri, |(path, _)| path)
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        headers,
        body: Vec::new(),
        http10,
    })
}

/// One response: status plus a body already rendered to bytes.
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub(crate) status: u16,
    /// Media type of the body.
    pub(crate) content_type: &'static str,
    /// Response body.
    pub(crate) body: String,
}

impl Response {
    /// A JSON response.
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response (Prometheus exposition uses this).
    pub(crate) fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }
}

/// The reason phrase for every status this server emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `response` onto any writer (the accept loop uses this to
/// emit 503 on streams that never reach a worker).
pub(crate) fn write_response_to<W: Write>(
    writer: &mut W,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(response.body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert!(find_head_end(b"GET / HTTP/1.1\r\n").is_none());
        let end = find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY").unwrap();
        assert_eq!(end.total, 18);
        let bare = find_head_end(b"GET / HTTP/1.1\n\nBODY").unwrap();
        assert_eq!(bare.total, 16);
    }

    #[test]
    fn parses_request_line_and_headers() {
        let req = parse_head(
            "POST /v1/attacks?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/attacks");
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_semantics() {
        let mut req = parse_head("GET / HTTP/1.0\r\n").unwrap();
        assert!(req.wants_close(), "HTTP/1.0 defaults to close");
        req.headers
            .push(("connection".to_string(), "keep-alive".to_string()));
        assert!(!req.wants_close());
        let req = parse_head("GET / HTTP/1.1\r\nConnection: close\r\n").unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `close` buried in a token list still closes...
        let req = parse_head("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse_head("GET / HTTP/1.1\r\nConnection: TE , close\r\n").unwrap();
        assert!(req.wants_close());
        // ...and `keep-alive` in a list keeps an HTTP/1.0 connection open.
        let req = parse_head("GET / HTTP/1.0\r\nConnection: Keep-Alive, TE\r\n").unwrap();
        assert!(!req.wants_close());
        // Unrelated tokens fall back to the version default.
        let req = parse_head("GET / HTTP/1.1\r\nConnection: upgrade\r\n").unwrap();
        assert!(!req.wants_close());
        let req = parse_head("GET / HTTP/1.0\r\nConnection: upgrade\r\n").unwrap();
        assert!(req.wants_close());
        // `close` beats `keep-alive` regardless of token order, even on
        // HTTP/1.0 where `keep-alive` appears first.
        let req = parse_head("GET / HTTP/1.0\r\nConnection: keep-alive, close\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse_head("GET / HTTP/1.0\r\nConnection: keep-alive\r\nConnection: close\r\n")
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        // No chunked framing here: a Transfer-Encoding body would be
        // framed as zero-length and smuggled as the next request.
        let parse = |head: &str| body_length(&parse_head(head).unwrap());
        assert!(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\n").is_err());
        // Even alongside an agreeing Content-Length: the intermediary may
        // frame by the encoding while this parser frames by the length.
        assert!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n")
                .is_err()
        );
    }

    #[test]
    fn content_length_agreement() {
        let parse = |head: &str| body_length(&parse_head(head).unwrap());
        assert_eq!(parse("POST / HTTP/1.1\r\n").unwrap(), 0);
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 7\r\n").unwrap(),
            7
        );
        // Identical duplicates (proxy artifact) are tolerated, both as
        // repeated headers and as a folded list.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n").unwrap(),
            7
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 7, 7\r\n").unwrap(),
            7
        );
        // Conflicting declarations are a smuggling vector: reject.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 8\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 7, 8\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: x\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: -1\r\n").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_head("").is_err());
        assert!(parse_head("GET /").is_err());
        assert!(parse_head("GET / HTTP/2").is_err());
        assert!(parse_head("GET / HTTP/1.1\r\nno-colon-here\r\n").is_err());
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        let resp = Response::json(200, "{}".to_string());
        write_response_to(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
