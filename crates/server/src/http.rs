//! Minimal HTTP/1.1 framing over blocking byte streams.
//!
//! Only the subset the query service needs: request/response lines,
//! `Content-Length`-delimited bodies, keep-alive, and (for the standing
//! query live feed) `Transfer-Encoding: chunked` responses. No
//! multipart, no TLS. The same framing code serves both sides — the
//! server parses [`Request`]s, the load generator and `segdiff watch`
//! parse responses — so a protocol bug cannot hide behind an asymmetric
//! implementation.

use obs::json::Json;
use std::io::{self, BufRead, IoSlice, Write};

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request or response body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why reading a message failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a request line arrived
    /// (normal end of a keep-alive connection).
    Closed,
    /// Headers or body exceeded the configured bounds.
    TooLarge,
    /// The bytes did not form a valid HTTP/1.x message.
    Malformed(String),
    /// Transport error (includes read timeouts).
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::TooLarge => write!(f, "message too large"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper case (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    keep_alive: bool,
}

impl Request {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }

    /// Value of `key` in the query string (`a=1&b=2` form, no decoding).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

fn read_line_limited(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    *budget = budget.checked_sub(n).ok_or(HttpError::TooLarge)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r, budget)?
            .ok_or_else(|| HttpError::Malformed("eof in headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    match headers.iter().find(|(k, _)| k == "content-length") {
        None => Ok(0),
        Some((_, v)) => {
            let n: usize = v
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?;
            if n > MAX_BODY_BYTES {
                Err(HttpError::TooLarge)
            } else {
                Ok(n)
            }
        }
    }
}

fn read_body(r: &mut impl BufRead, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request from `r`. [`HttpError::Closed`] means the peer hung
/// up cleanly between requests.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length(&headers)?)?;
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// Reads one response, returning `(status, body)`.
pub fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty status line".into()))?;
    if !version.starts_with("HTTP/") {
        return Err(HttpError::Malformed(format!("bad status line: {line}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line: {line}")))?;
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length(&headers)?)?;
    Ok((status, body))
}

/// Writes a request with an optional body to `w`.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    host: &str,
    body: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    let msg = format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    w.write_all(msg.as_bytes())?;
    w.flush()
}

/// Canonical reason phrase for a status code.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response ready for serialization.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, doc: &Json) -> Self {
        let mut body = Vec::new();
        doc.write_to(&mut body);
        Response::json_bytes(status, body)
    }

    /// A JSON response over an already serialized document.
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
            close: false,
        }
    }

    /// A binary response (WAL shipping, file chunks).
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "application/octet-stream",
            body,
            close: false,
        }
    }

    /// A JSON error response `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Response::json(status, &Json::obj([("error", Json::Str(message.into()))]))
    }

    /// Marks the response as connection-closing.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Serializes status line, headers and body to `w` as one vectored
    /// write: on a `TCP_NODELAY` socket two writes are two segments and
    /// can be two wake-ups of the reader.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        let (head, body) = (head.as_bytes(), self.body.as_slice());
        let mut sent = 0;
        while sent < head.len() + body.len() {
            let rest = [
                IoSlice::new(&head[sent.min(head.len())..]),
                IoSlice::new(&body[sent.saturating_sub(head.len())..]),
            ];
            match w.write_vectored(&rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Starts a `Transfer-Encoding: chunked` response on `w`: status line
/// and headers only. Bodies follow as [`write_chunk`] calls terminated
/// by [`finish_chunks`]. Chunked responses always close the connection
/// afterwards — a live feed has no framing-safe way back to keep-alive.
pub fn write_chunked_head(w: &mut impl Write, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
    );
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one non-empty chunk (`<hex-size>\r\n<bytes>\r\n`) and flushes,
/// so a streaming client sees the bytes immediately. Empty input is a
/// no-op: a zero-length chunk would be the stream terminator.
pub fn write_chunk(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", bytes.len())?;
    w.write_all(bytes)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked body (`0\r\n\r\n`, no trailers).
pub fn finish_chunks(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Reads a chunked response's status line and headers, leaving `r`
/// positioned at the first chunk for [`read_chunk`]. Returns the status
/// and headers so the caller can check `Transfer-Encoding` itself.
pub fn read_chunked_head(r: &mut impl BufRead) -> Result<(u16, Vec<(String, String)>), HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty status line".into()))?;
    if !version.starts_with("HTTP/") {
        return Err(HttpError::Malformed(format!("bad status line: {line}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line: {line}")))?;
    let headers = read_headers(r, &mut budget)?;
    Ok((status, headers))
}

/// Reads one chunk from a chunked body. `Ok(None)` is the terminating
/// zero-length chunk; [`HttpError::Closed`] means the peer hung up
/// mid-stream (how a live feed ends on server shutdown).
pub fn read_chunk(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    // Chunk extensions (`;`-separated) are allowed by the RFC; ignore them.
    let size_str = line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_str, 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size: {line:?}")))?;
    if size > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    if size == 0 {
        // Trailer section: read lines until the blank terminator.
        while let Some(l) = read_line_limited(r, &mut budget)? {
            if l.is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let mut chunk = vec![0u8; size];
    r.read_exact(&mut chunk)?;
    let mut crlf = [0u8; 2];
    r.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(HttpError::Malformed("chunk not CRLF-terminated".into()));
    }
    Ok(Some(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /metrics?format=json HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query_param("format"), Some("json"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /query HTTP/1.1\r\nContent-Length: 13\r\nConnection: close\r\n\r\n{\"kind\":\"up\"}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), "{\"kind\":\"up\"}");
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn eof_between_requests_is_closed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse("\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge)));
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::json(200, &Json::obj([("ok", Json::Bool(true))]));
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let (status, body) = read_response(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
            Json::obj([("ok", Json::Bool(true))])
        );
    }

    /// A sink that counts calls and takes at most `cap` bytes per call.
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.cap - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        let resp = Response::text(200, "x".repeat(5000));
        let mut reference = Vec::new();
        resp.write_to(&mut reference).unwrap();
        assert!(reference.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(reference.ends_with(&resp.body));

        let mut sink = Counting {
            bytes: Vec::new(),
            calls: 0,
            cap: usize::MAX,
        };
        resp.write_to(&mut sink).unwrap();
        assert_eq!(sink.calls, 1, "head and body must leave in one call");
        assert_eq!(sink.bytes, reference);

        // A sink that takes 7 bytes a call (splitting the head, the
        // seam and the body) still receives every byte once, in order.
        let mut slow = Counting {
            bytes: Vec::new(),
            calls: 0,
            cap: 7,
        };
        resp.write_to(&mut slow).unwrap();
        assert_eq!(slow.bytes, reference);
        assert_eq!(slow.calls, reference.len().div_ceil(7));
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut buf = Vec::new();
        write_chunked_head(&mut buf, 200, "application/x-ndjson").unwrap();
        write_chunk(&mut buf, b"{\"seq\":1}\n").unwrap();
        write_chunk(&mut buf, b"").unwrap(); // no-op, not a terminator
        write_chunk(&mut buf, b"{\"seq\":2}\n").unwrap();
        finish_chunks(&mut buf).unwrap();

        let mut r = BufReader::new(buf.as_slice());
        let (status, headers) = read_chunked_head(&mut r).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked"));
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), b"{\"seq\":1}\n");
        assert_eq!(read_chunk(&mut r).unwrap().unwrap(), b"{\"seq\":2}\n");
        assert!(read_chunk(&mut r).unwrap().is_none());
    }

    #[test]
    fn chunk_reader_rejects_garbage_and_reports_hangup() {
        let mut r = BufReader::new(&b"zz\r\n"[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::Malformed(_))));
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::Closed)));
        // Size line present but body truncated mid-chunk.
        let mut r = BufReader::new(&b"a\r\nhalf"[..]);
        assert!(matches!(read_chunk(&mut r), Err(HttpError::Io(_))));
    }

    #[test]
    fn request_round_trips() {
        let mut buf = Vec::new();
        write_request(&mut buf, "POST", "/query", "h", Some("{\"v\":-1.0}")).unwrap();
        let req = read_request(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body_str().unwrap(), "{\"v\":-1.0}");
    }
}
