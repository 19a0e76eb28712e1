//! Minimal HTTP/1.1 on `std::net`: enough protocol for a control-plane
//! API (short requests, `Content-Length` bodies, `Connection: close`),
//! with a matching client helper so the loadgen, the benches, and
//! `scripts/verify.sh` need no external tooling.
//!
//! Responses come in two shapes: complete (`Content-Length`) for every
//! control route, and **chunked transfer-encoding** for the live event
//! stream (`GET /jobs/{id}/events`), where the body length is unknown
//! until the job finishes — see [`ChunkedWriter`] and the matching
//! [`stream_request`] client.
//!
//! Deliberately out of scope: keep-alive, TLS, multipart — none of
//! which a job-submission API needs. Requests are size-capped so a
//! misbehaving client cannot balloon server memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest accepted request body (1 MiB — job specs are tiny).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Largest accepted request line + headers block.
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Header pairs, keys lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Protocol-level failure while reading a request; maps to a 400 and a
/// closed connection.
#[derive(Debug)]
pub struct HttpError(pub String);

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http: {}", self.0)
    }
}

fn err(msg: impl Into<String>) -> HttpError {
    HttpError(msg.into())
}

/// Read one request from `stream`: at most [`MAX_HEAD_BYTES`] of head
/// and [`MAX_BODY_BYTES`] of body, plus what one buffered read takes
/// beyond them.
pub fn read_request(stream: impl Read) -> Result<Request, HttpError> {
    // The head is read through a window one byte wider than its cap: a
    // head that fills the window is too large, however its lines run.
    let mut head = BufReader::new(stream).take(MAX_HEAD_BYTES as u64 + 1);
    let mut next_line = |what: &str| {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|e| err(format!("read {what}: {e}")))?;
        match head.limit() {
            0 => Err(err("request head too large")),
            _ => Ok(line),
        }
    };

    let line = next_line("request line")?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(err("empty request"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| err("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| err("missing request target"))?;
    let version = parts.next().ok_or_else(|| err("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(err(format!("unsupported version {version}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let hline = next_line("header")?;
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (k, v) = hline
            .split_once(':')
            .ok_or_else(|| err(format!("malformed header {hline:?}")))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| err(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(err(format!(
            "body of {content_length} bytes exceeds limit {MAX_BODY_BYTES}"
        )));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner()
        .read_exact(&mut body)
        .map_err(|e| err(format!("read body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| err("body is not UTF-8"))?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response with the given body and content type;
/// always `Connection: close`.
pub fn write_response(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        status_text(code),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Shorthand for a JSON response.
pub fn write_json(stream: &mut TcpStream, code: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, code, "application/json", body)
}

/// Streaming response writer: sends a chunked transfer-encoding head,
/// then one chunk per [`ChunkedWriter::chunk`] call, then the
/// zero-length terminator on [`ChunkedWriter::finish`]. Used by the
/// live event stream, whose body length is unknown up front.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head (`Transfer-Encoding: chunked`,
    /// `Connection: close`) and return the writer.
    pub fn start(
        stream: &'a mut TcpStream,
        code: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {code} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
            status_text(code),
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one non-empty chunk and flush it (each chunk must reach the
    /// consumer promptly — this is a live stream, not a download).
    /// Empty payloads are skipped: a zero-length chunk would terminate
    /// the body.
    pub fn chunk(&mut self, data: &str) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Send the zero-length terminating chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Streaming client for chunked NDJSON responses: GET `path` and hand
/// each received line to `on_line`, which returns `false` to stop
/// early (the connection drops; `Connection: close` makes that safe).
/// Returns the status code and every line received. Non-chunked error
/// responses (404 and friends) are read as a plain body and returned
/// as zero lines.
pub fn stream_request(
    addr: impl ToSocketAddrs,
    path: &str,
    read_timeout: Duration,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<(u16, Vec<String>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head =
        format!("GET {path} HTTP/1.1\r\nhost: beatnik-serve\r\nconnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut chunked = false;
    loop {
        let mut hline = String::new();
        reader.read_line(&mut hline)?;
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        if let Some((k, v)) = hline.split_once(':') {
            if k.trim().eq_ignore_ascii_case("transfer-encoding")
                && v.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    if !chunked {
        return Ok((code, Vec::new()));
    }

    // Decode chunks, re-frame into NDJSON lines (a chunk is usually one
    // line, but the protocol does not promise that).
    let mut lines = Vec::new();
    let mut partial = String::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            break; // peer closed without a terminator; take what we have
        }
        let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad chunk size {size_line:?}"),
            )
        })?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2]; // payload + trailing CRLF
        reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        partial.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(nl) = partial.find('\n') {
            let line: String = partial.drain(..=nl).collect();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                continue;
            }
            let keep_going = on_line(&line);
            lines.push(line);
            if !keep_going {
                return Ok((code, lines));
            }
        }
    }
    if !partial.trim_end().is_empty() {
        lines.push(partial.trim_end().to_string());
    }
    Ok((code, lines))
}

/// Blocking one-shot client: send `method path` with an optional body
/// and return `(status, body)`. Used by loadgen, bench_serve, and the
/// integration tests — no curl dependency anywhere in the repo.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: beatnik-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut hline = String::new();
        reader.read_line(&mut hline)?;
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        if let Some((k, v)) = hline.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8_lossy(&buf).into_owned()
        }
        // Connection: close responses without a length: read to EOF.
        None => {
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trip a raw request through a real socket pair and return
    /// what the server side parsed.
    fn parse_via_socket(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Hold the socket open until the server finishes reading.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let out = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        out
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse_via_socket(
            b"POST /jobs?debug=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, "{\"a\": 1}\n");
    }

    #[test]
    fn rejects_protocol_garbage() {
        assert!(parse_via_socket(b"\r\n").is_err());
        assert!(parse_via_socket(b"GET /\r\n\r\n").is_err());
        assert!(parse_via_socket(b"GET / SPDY/99\r\n\r\n").is_err());
        assert!(
            parse_via_socket(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err()
        );
        let oversized = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse_via_socket(oversized.as_bytes()).is_err());
    }

    /// A reader over `bytes` that counts what the parser takes from it.
    struct Counted<'a> {
        bytes: &'a [u8],
        taken: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.taken += n;
            Ok(n)
        }
    }

    /// Parse `bytes` from memory; also return how many bytes were read.
    fn parse_counted(bytes: &[u8]) -> (Result<Request, HttpError>, usize) {
        let mut input = Counted { bytes, taken: 0 };
        let out = read_request(&mut input);
        (out, input.taken)
    }

    /// What a parse may read at most: the head and body caps, plus one
    /// buffer fill of the reader beyond them.
    const READ_BOUND: usize = MAX_HEAD_BYTES + 1 + MAX_BODY_BYTES + (8 << 10);

    #[test]
    fn an_endless_head_line_is_refused_within_the_head_cap() {
        for raw in [
            vec![b'a'; 4 * MAX_HEAD_BYTES],
            [b"GET / HTTP/1.1\r\nX: ".as_slice(), &[b'b'; 4 * MAX_HEAD_BYTES]].concat(),
        ] {
            let (out, taken) = parse_counted(&raw);
            let e = out.expect_err("an endless line");
            assert_eq!(e.0, "request head too large");
            assert!(taken <= MAX_HEAD_BYTES + (8 << 10), "read {taken} bytes");
        }
    }

    /// Valid requests, cut, flipped, grown and padded: each parses or
    /// fails with an `HttpError`, reading no more than the caps allow.
    #[test]
    fn seeded_hostile_requests_parse_or_fail_within_bounds() {
        use beatnik_prng::Rng;
        let valid: [&[u8]; 4] = [
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 27\r\n\r\n{\"mesh_n\": 16, \"steps\": 4}\n",
            b"GET /jobs/3/events?follow=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            b"DELETE /jobs/7 HTTP/1.0\r\n\r\n",
            b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\ncontent-length: 0\r\n\r\n",
        ];
        let (mut ok, mut refused) = (0, 0);
        for seed in 0..1_500u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut raw = valid[rng.gen_index(0..valid.len())].to_vec();
            match rng.gen_index(0..5) {
                0 => raw.truncate(rng.gen_index(0..raw.len() + 1)),
                1 => {
                    for _ in 0..1 + rng.gen_index(0..4) {
                        let at = rng.gen_index(0..raw.len());
                        raw[at] ^= 1 << rng.gen_index(0..8);
                    }
                }
                2 => {
                    const BYTES: &[u8] = b"\r\n: 0123456789-\xff";
                    let at = rng.gen_index(0..raw.len() + 1);
                    let extra: Vec<u8> = (0..1 + rng.gen_index(0..8))
                        .map(|_| BYTES[rng.gen_index(0..BYTES.len())])
                        .collect();
                    raw.splice(at..at, extra);
                }
                3 => {
                    // Many header lines, over the head cap or not.
                    let at = raw.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
                    let line = b"X-Pad: 0123456789abcdef\r\n";
                    let n = rng.gen_index(0..2 * MAX_HEAD_BYTES / line.len());
                    raw.splice(at..at, line.repeat(n));
                }
                _ => {
                    // A body length out of all proportion to the body.
                    let len = [MAX_BODY_BYTES, MAX_BODY_BYTES + 1, usize::MAX][rng.gen_index(0..3)];
                    let head = format!("POST /jobs HTTP/1.1\r\ncontent-length: {len}\r\n\r\n");
                    raw = [head.as_bytes(), &raw].concat();
                }
            }
            let started = std::time::Instant::now();
            let (out, taken) = parse_counted(&raw);
            assert!(taken <= READ_BOUND, "seed {seed}: read {taken} bytes");
            assert!(started.elapsed() < Duration::from_secs(1), "seed {seed}: slow parse");
            match out {
                Ok(req) => {
                    assert!(req.body.len() <= MAX_BODY_BYTES, "seed {seed}");
                    ok += 1;
                }
                Err(HttpError(msg)) => {
                    assert!(!msg.is_empty(), "seed {seed}");
                    refused += 1;
                }
            }
        }
        assert!(ok > 100 && refused > 100, "{ok} parsed, {refused} refused");
    }

    #[test]
    fn client_and_server_speak_to_each_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.body, "ping");
            write_json(&mut stream, 201, "{\"ok\":true}").unwrap();
        });
        let (code, body) = request(addr, "POST", "/echo", Some("ping")).unwrap();
        assert_eq!(code, 201);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn chunked_stream_round_trips_ndjson_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.path, "/jobs/1/events");
            let mut w = ChunkedWriter::start(&mut stream, 200, "application/x-ndjson").unwrap();
            w.chunk("{\"event\":\"queued\"}\n").unwrap();
            // One chunk carrying two lines, plus a split line across
            // two chunks: the client re-frames on newlines.
            w.chunk("{\"step\":1}\n{\"step\":2}\n{\"ev").unwrap();
            w.chunk("ent\":\"done\"}\n").unwrap();
            w.finish().unwrap();
        });
        let mut seen = Vec::new();
        let (code, lines) = stream_request(addr, "/jobs/1/events", Duration::from_secs(10), |l| {
            seen.push(l.to_string());
            true
        })
        .unwrap();
        assert_eq!(code, 200);
        assert_eq!(
            lines,
            [
                "{\"event\":\"queued\"}",
                "{\"step\":1}",
                "{\"step\":2}",
                "{\"event\":\"done\"}",
            ]
        );
        assert_eq!(seen, lines);
        server.join().unwrap();
    }

    #[test]
    fn stream_client_can_stop_early() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream).unwrap();
            let mut w = ChunkedWriter::start(&mut stream, 200, "application/x-ndjson").unwrap();
            for i in 0..100 {
                if w.chunk(&format!("{{\"step\":{i}}}\n")).is_err() {
                    return; // client hung up — expected
                }
            }
            let _ = w.finish();
        });
        let (code, lines) =
            stream_request(addr, "/x", Duration::from_secs(10), |l| !l.contains("\"step\":3"))
                .unwrap();
        assert_eq!(code, 200);
        assert_eq!(lines.len(), 4, "{lines:?}");
        server.join().unwrap();
    }
}
