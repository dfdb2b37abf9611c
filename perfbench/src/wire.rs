//! A blocking client for the server's line protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The header fields of one response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Header {
    pub ok: bool,
    pub epoch: Option<u64>,
    /// Body lines that follow the header.
    pub lines: usize,
    pub count: Option<usize>,
}

pub fn parse_header(line: &str) -> Header {
    let mut h = Header {
        ok: line.starts_with("OK") || line.starts_with("ACK") || line.starts_with("PONG"),
        ..Header::default()
    };
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("epoch=") {
            h.epoch = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("n=") {
            h.lines = v.parse().unwrap_or(0);
        } else if let Some(v) = token.strip_prefix("count=") {
            h.count = v.parse().ok();
        }
    }
    h
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends request lines (each `\n`-terminated) in one write.
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    /// Reads one response, appending its header and body lines to
    /// `out`, and returns the parsed header.
    pub fn read_response(&mut self, out: &mut String) -> io::Result<Header> {
        let at = out.len();
        if self.reader.read_line(out)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let header = parse_header(&out[at..]);
        for _ in 0..header.lines {
            self.reader.read_line(out)?;
        }
        Ok(header)
    }

    /// Sends one request line and reads its response into `out`
    /// (cleared first).
    pub fn request(&mut self, line: &str, out: &mut String) -> io::Result<Header> {
        out.clear();
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        out.clear();
        self.read_response(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields() {
        let h = parse_header("OK epoch=12 n=3\n");
        assert_eq!((h.ok, h.epoch, h.lines, h.count), (true, Some(12), 3, None));
        let h = parse_header("OK epoch=4 n=0 count=17");
        assert_eq!(h.count, Some(17));
        assert!(parse_header("ACK").ok);
        assert!(!parse_header("ERR unknown verb").ok);
    }
}
