//! A persistent JSON-lines TCP client.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest wait for one response before the run gives up on the daemon.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One persistent connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    out: Vec<u8>,
    timeout: Option<Duration>,
}

impl Conn {
    /// Connects with Nagle off, as the daemon does on its side.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            out: Vec::with_capacity(512),
            timeout: None,
        })
    }

    /// Sends one request line in a single write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }

    /// Blocks for the next response line, for at most a minute.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line()? {
                return Ok(line);
            }
            self.set_timeout(Some(RESPONSE_TIMEOUT))?;
            self.fill()?;
        }
    }

    fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        if self.timeout != t {
            self.stream.set_read_timeout(t)?;
            self.timeout = t;
        }
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn take_line(&mut self) -> io::Result<Option<String>> {
        let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&self.buf[self.start..self.start + pos])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        self.start += pos + 1;
        Ok(Some(line))
    }
}
