//! A minimal keep-alive HTTP/1.1 client for `Content-Length`-framed JSON
//! services — the load generator's side of the wire.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 << 20;

pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection; it reconnects when the server closed it.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, body)
    }

    /// Sends one request. A reused connection the server has since closed
    /// fails before any response byte arrives; that case is retried once
    /// on a fresh connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.exchange(method, path, body) {
            Err(e) if reused && e.kind() == io::ErrorKind::ConnectionAborted => {
                self.stream = None;
                self.exchange(method, path, body)
            }
            other => other,
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        );
        let result = (|| {
            let stream = self.connect()?;
            let mut wire = head.into_bytes();
            wire.extend_from_slice(body.as_bytes());
            if let Err(e) = stream.get_mut().write_all(&wire) {
                return Err(io::Error::new(io::ErrorKind::ConnectionAborted, e));
            }
            read_response(stream)
        })();
        match &result {
            Ok(response) if response.header("connection") == Some("close") => self.stream = None,
            Err(_) => self.stream = None,
            Ok(_) => {}
        }
        result
    }
}

fn read_response(stream: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "connection closed before the response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status `{line}`"))
        })?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        stream.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response body of {length} bytes"),
        ));
    }
    let mut body = vec![0; length];
    stream.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}
