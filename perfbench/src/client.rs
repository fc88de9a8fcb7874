//! A keep-alive HTTP/1.1 client over `std::net`, enough for the server's
//! `Content-Length`-framed responses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response and how long it took from the first byte sent to the last
/// byte received.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub elapsed: Duration,
}

/// One client connection, reopened after the server closes it, after a
/// transport error, and after sitting idle long enough that the server may
/// have closed it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    last_used: Instant,
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Idle time after which the connection is reopened before the next
/// request: below the server's default 5 s read timeout, which closes idle
/// keep-alive connections.
const MAX_IDLE: Duration = Duration::from_secs(2);

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            last_used: Instant::now(),
        }
    }

    /// Sends one request and reads its response. A transport error drops
    /// the connection; the request is not retried.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Response, String> {
        let result = self.exchange(method, path, headers, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(BufReader::new(stream))
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Response, String> {
        if self.stream.is_none() || self.last_used.elapsed() > MAX_IDLE {
            self.stream = Some(self.connect()?);
        }
        let reader = self.stream.as_mut().expect("connected above");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: lsd\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body);

        let started = Instant::now();
        let stream = reader.get_mut();
        stream
            .write_all(&request)
            .and_then(|()| stream.flush())
            .map_err(|e| format!("write: {e}"))?;

        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read status: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unparseable status line {line:?}"))?;
        let mut length: Option<usize> = None;
        let mut close = false;
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read header: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or("response has no Content-Length")?;
        let mut body = vec![0; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        let elapsed = started.elapsed();
        self.last_used = Instant::now();
        if close {
            self.stream = None;
        }
        Ok(Response {
            status,
            body,
            elapsed,
        })
    }
}
