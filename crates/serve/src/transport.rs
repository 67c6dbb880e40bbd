//! The wire codec for both serve transports.
//!
//! PnO-TCP's observation is that the kernel network stack, not the NF,
//! often dominates small-request latency. The serve daemon makes that
//! measurable by speaking the same JSON protocol over two transports:
//!
//! - **`tcp`** — newline-delimited JSON over `TcpStream` with
//!   `TCP_NODELAY`. The default; reachable over the network.
//! - **`uds`** — length-prefixed frames over a `UnixStream`: a 4-byte
//!   little-endian payload length, then the JSON payload. Local-only;
//!   skips the TCP/IP stack entirely.
//!
//! The payload bytes are identical on both. [`Transport::read`] and
//! [`Transport::write`] are the only code that frames them, for the
//! daemon and the bench client alike. Both work out of buffers the
//! caller keeps per connection, and both refuse a message over
//! [`MAX_FRAME_LEN`] before buffering more of it.

use std::io::{self, BufRead, Write};

/// Which listener(s) the daemon binds / the bench client dials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Newline-delimited JSON over TCP (the default).
    Tcp,
    /// Length-prefixed JSON frames over a Unix-domain socket.
    Uds,
}

/// Messages larger than this are refused rather than buffered, on both
/// transports: no legitimate request or response comes close.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

impl Transport {
    /// Parses a `--transport` flag value.
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "tcp" => Some(Transport::Tcp),
            "uds" => Some(Transport::Uds),
            _ => None,
        }
    }

    /// The flag/report string for this transport.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Uds => "uds",
        }
    }

    /// Reads one message into `buf` (reused across calls) and returns
    /// it as UTF-8; `Ok(None)` is clean EOF between messages. A `tcp`
    /// message is one line without its `\n` or `\r\n`; a final line the
    /// peer closed without a newline is still delivered.
    ///
    /// # Errors
    ///
    /// I/O errors from the stream; `UnexpectedEof` for a truncated
    /// frame; `InvalidData` for a message over [`MAX_FRAME_LEN`] (the
    /// rest of it is left unread) or one that is not UTF-8.
    pub fn read<'b>(
        self,
        r: &mut impl BufRead,
        buf: &'b mut Vec<u8>,
    ) -> io::Result<Option<&'b str>> {
        buf.clear();
        let got = match self {
            Transport::Tcp => read_line(r, buf)?,
            Transport::Uds => read_frame(r, buf)?,
        };
        if !got {
            return Ok(None);
        }
        std::str::from_utf8(buf).map(Some).map_err(|_| {
            let detail = format!("{} message is not UTF-8", self.as_str());
            io::Error::new(io::ErrorKind::InvalidData, detail)
        })
    }

    /// Writes one message, assembled in `buf` (reused across calls) so it
    /// goes out in a single `write_all`: no partial-message interleaving,
    /// one syscall.
    ///
    /// # Errors
    ///
    /// I/O errors from the stream; `InvalidData` for a message over
    /// [`MAX_FRAME_LEN`].
    pub fn write(self, w: &mut impl Write, buf: &mut Vec<u8>, msg: &str) -> io::Result<()> {
        let bytes = msg.as_bytes();
        if bytes.len() > MAX_FRAME_LEN {
            return Err(too_long(bytes.len()));
        }
        buf.clear();
        match self {
            Transport::Tcp => {
                buf.extend_from_slice(bytes);
                buf.push(b'\n');
            }
            Transport::Uds => {
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
        }
        w.write_all(buf)?;
        w.flush()
    }
}

fn too_long(len: usize) -> io::Error {
    let detail = format!("message length {len} exceeds the {MAX_FRAME_LEN}-byte cap");
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Appends one line to `buf` without its terminator, refusing to buffer
/// past the cap; `false` is EOF before any byte of it.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    loop {
        let chunk = match r.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            res => res?,
        };
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > MAX_FRAME_LEN {
            return Err(too_long(buf.len() + take));
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(true);
        }
    }
}

/// Reads one frame's payload into `buf`; `false` is EOF before its
/// length prefix.
fn read_frame(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(too_long(len));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads every message `wire` holds, one buffer reused throughout.
    fn read_all(t: Transport, mut wire: &[u8]) -> Vec<String> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while let Some(msg) = t.read(&mut wire, &mut buf).expect("read") {
            out.push(msg.to_string());
        }
        out
    }

    #[test]
    fn frames_round_trip_with_reused_buffers() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for payload in ["{\"v\":1,\"op\":\"stats\"}", "", "π frames are UTF-8"] {
            Transport::Uds
                .write(&mut wire, &mut scratch, payload)
                .expect("write");
        }
        assert_eq!(
            read_all(Transport::Uds, &wire),
            ["{\"v\":1,\"op\":\"stats\"}", "", "π frames are UTF-8"]
        );
    }

    #[test]
    fn lines_strip_crlf_keep_blanks_and_deliver_an_unterminated_tail() {
        assert_eq!(
            read_all(Transport::Tcp, "{\"a\":1}\r\n\n  \nπ\nlast".as_bytes()),
            ["{\"a\":1}", "", "  ", "π", "last"]
        );
        assert!(
            read_all(Transport::Tcp, b"").is_empty(),
            "empty stream is clean EOF"
        );

        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        Transport::Tcp
            .write(&mut wire, &mut scratch, "{\"v\":1}")
            .expect("write");
        Transport::Tcp
            .write(&mut wire, &mut scratch, "x")
            .expect("write");
        assert_eq!(wire, b"{\"v\":1}\nx\n");
    }

    #[test]
    fn one_buffer_serves_lines_across_buffered_reader_refills() {
        // A 2-byte reader capacity splits every line across refills.
        let wire = b"alpha\r\nbe\nta\n".to_vec();
        let mut r = io::BufReader::with_capacity(2, wire.as_slice());
        let mut buf = Vec::new();
        for want in ["alpha", "be", "ta"] {
            let got = Transport::Tcp.read(&mut r, &mut buf).expect("read");
            assert_eq!(got, Some(want));
        }
        assert_eq!(Transport::Tcp.read(&mut r, &mut buf).expect("EOF"), None);
    }

    #[test]
    fn over_cap_lines_and_writes_are_invalid_data() {
        // A line that reaches the cap without a newline.
        let wire = vec![b'x'; MAX_FRAME_LEN + 1];
        let mut buf = Vec::new();
        let err = Transport::Tcp
            .read(&mut wire.as_slice(), &mut buf)
            .expect_err("over cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&MAX_FRAME_LEN.to_string()),
            "{err}"
        );
        assert!(
            buf.len() <= MAX_FRAME_LEN,
            "refused before buffering past the cap"
        );
        // Exactly at the cap is still a message.
        let mut wire = vec![b' '; MAX_FRAME_LEN];
        wire.push(b'\n');
        let msg = Transport::Tcp
            .read(&mut wire.as_slice(), &mut buf)
            .expect("at cap");
        assert_eq!(msg.map(str::len), Some(MAX_FRAME_LEN));
        // Writes refuse the same sizes.
        let big = " ".repeat(MAX_FRAME_LEN + 1);
        for t in [Transport::Tcp, Transport::Uds] {
            let err = t
                .write(&mut Vec::new(), &mut buf, &big)
                .expect_err("over cap");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn corrupt_frames_are_invalid_data_not_allocation() {
        // Oversized length prefix.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut buf = Vec::new();
        let err = Transport::Uds
            .read(&mut wire.as_slice(), &mut buf)
            .expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&MAX_FRAME_LEN.to_string()),
            "{err}"
        );
        // Truncated payload: prefix says 8, only 3 bytes follow.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let err = Transport::Uds
            .read(&mut wire.as_slice(), &mut buf)
            .expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Non-UTF-8 payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        let err = Transport::Uds
            .read(&mut wire.as_slice(), &mut buf)
            .expect_err("bad UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn non_utf8_lines_are_invalid_data() {
        let mut buf = Vec::new();
        let err = Transport::Tcp
            .read(&mut &b"\xff\xfe\n"[..], &mut buf)
            .expect_err("bad UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn transport_parses_flag_values() {
        assert_eq!(Transport::parse("tcp"), Some(Transport::Tcp));
        assert_eq!(Transport::parse("uds"), Some(Transport::Uds));
        assert_eq!(Transport::parse("quic"), None);
        assert_eq!(Transport::Tcp.as_str(), "tcp");
        assert_eq!(Transport::Uds.as_str(), "uds");
    }
}
