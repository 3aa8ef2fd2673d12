//! Minimal std-only HTTP/1.1 keep-alive client.
//!
//! Promoted out of `examples/loadgen.rs` so the fan-out coordinator and
//! the load generator share one wire implementation: a single
//! `TcpStream` per [`Client`], one request/response in flight at a time,
//! Content-Length-delimited bodies, and a single transparent reconnect
//! when the server closes an idle keep-alive connection under us. No
//! TLS, no chunked decoding — the bgpsim-server wire format needs
//! neither, and staying std-only is a workspace invariant.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bgpsim_core::manifest::Json;

/// Minimal HTTP/1.1 keep-alive client over one `TcpStream`.
pub struct Client {
    addr: String,
    read_timeout: Duration,
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (`host:port`) with a 30-second read timeout.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects to `addr` with an explicit read timeout — the
    /// coordinator uses short timeouts for health probes and long ones
    /// for shard polls.
    pub fn connect_with_timeout(addr: &str, read_timeout: Duration) -> std::io::Result<Client> {
        let stream = open(addr, read_timeout)?;
        Ok(Client {
            addr: addr.to_string(),
            read_timeout,
            stream,
        })
    }

    /// Sends one request and reads one response; reconnects once if the
    /// server closed the keep-alive connection under us.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        self.request_with_headers(method, path, &[], body)
    }

    /// Like [`Client::request`] with extra `(name, value)` headers —
    /// the coordinator attaches `Idempotency-Key` this way.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        match self.request_once(method, path, headers, body) {
            Ok(ok) => Ok(ok),
            Err(_) => {
                self.stream = open(&self.addr, self.read_timeout)?;
                self.request_once(method, path, headers, body)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        read_response(&mut self.stream)
    }
}

fn open(addr: &str, read_timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    Ok(stream)
}

/// Reads one HTTP response (status + Content-Length-delimited body).
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((status, String::from_utf8_lossy(&body).to_string()))
}

/// [`Json::get`] as a free function. Read by `benchmark/` (frozen); new
/// code calls the method.
pub fn get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    json.get(key)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-connection stub server: answers the i-th request on it with
    /// `bodies[i]` (consuming the request body first, so requests frame
    /// cleanly) and returns everything it saw once the script runs out.
    pub(crate) fn serve_script(bodies: Vec<String>) -> (String, std::thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut consumed = 0;
            let mut chunk = [0u8; 4096];
            for body in bodies {
                let head_end = loop {
                    if let Some(pos) = seen[consumed..].windows(4).position(|w| w == b"\r\n\r\n") {
                        break consumed + pos + 4;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up mid-script");
                    seen.extend_from_slice(&chunk[..n]);
                };
                let head = String::from_utf8_lossy(&seen[consumed..head_end]).to_string();
                let length: usize = head
                    .lines()
                    .find_map(|line| line.strip_prefix("Content-Length: ")?.trim().parse().ok())
                    .unwrap_or(0);
                while seen.len() < head_end + length {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up mid-body");
                    seen.extend_from_slice(&chunk[..n]);
                }
                consumed = head_end + length;
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(response.as_bytes()).unwrap();
            }
            String::from_utf8_lossy(&seen).to_string()
        });
        (addr, handle)
    }

    #[test]
    fn round_trips_a_request() {
        let (addr, handle) = serve_script(vec!["{\"ok\":true}".to_string()]);
        let mut client = Client::connect(&addr).unwrap();
        let (status, body) = client
            .request_with_headers("GET", "/v1/healthz", &[("Idempotency-Key", "k-1")], "")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        let seen = handle.join().unwrap();
        assert!(seen.starts_with("GET /v1/healthz HTTP/1.1\r\n"), "{seen}");
        assert!(seen.contains("Idempotency-Key: k-1\r\n"), "{seen}");
    }
}
