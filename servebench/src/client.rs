//! A minimal HTTP/1.1 client with persistent-connection semantics: it
//! keeps the socket while the server keeps it open and reconnects when
//! the server closes it. The server today answers `Connection: close`,
//! so every request pays a connect; a server that keeps connections
//! alive is measured without the benchmark changing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        find(&self.headers, name)
    }
}

fn find<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
}

/// Why one exchange failed: `Stale` means a reused connection died
/// before any reply byte arrived, so the request can be resent.
enum ExchangeError {
    Stale(io::Error),
    Other(io::Error),
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, &[])
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.request("POST", path, body)
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        loop {
            let reused = self.conn.is_some();
            if !reused {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(120)))?;
                self.conn = Some(BufReader::new(stream));
                self.connects += 1;
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            match exchange(conn, &msg) {
                Ok((reply, close)) => {
                    if close {
                        self.conn = None;
                    }
                    return Ok(reply);
                }
                Err(ExchangeError::Stale(e)) => {
                    self.conn = None;
                    if !reused {
                        return Err(e);
                    }
                }
                Err(ExchangeError::Other(e)) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }
}

/// Send one request and read its reply; `true` when the server closes
/// the connection after it.
fn exchange(conn: &mut BufReader<TcpStream>, msg: &[u8]) -> Result<(Reply, bool), ExchangeError> {
    conn.get_mut()
        .write_all(msg)
        .map_err(ExchangeError::Stale)?;
    let mut line = String::new();
    match conn.read_line(&mut line) {
        Ok(0) => {
            return Err(ExchangeError::Stale(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            )))
        }
        Ok(_) => {}
        Err(e) => return Err(ExchangeError::Stale(e)),
    }
    let bad = |m: &str| ExchangeError::Other(io::Error::new(io::ErrorKind::InvalidData, m));
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        conn.read_line(&mut line).map_err(ExchangeError::Other)?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let mut close = find(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let mut body = Vec::new();
    match find(&headers, "content-length") {
        Some(n) => {
            let n: usize = n.parse().map_err(|_| bad("malformed Content-Length"))?;
            body.resize(n, 0);
            conn.read_exact(&mut body).map_err(ExchangeError::Other)?;
        }
        // Without a length the body runs to the end of the connection.
        None => {
            conn.read_to_end(&mut body).map_err(ExchangeError::Other)?;
            close = true;
        }
    }
    Ok((
        Reply {
            status,
            headers,
            body,
        },
        close,
    ))
}
