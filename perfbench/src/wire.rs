//! A lean client for the server's line protocol (`specs/PROTOCOL.md`):
//! requests are buffered and pipelined, replies are framed into a
//! reused buffer so the load generator allocates nothing per reply.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How one reply ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK`; the body is in the caller's buffer.
    Ok,
    /// `ERR`; the whole header line (code and message).
    Err(String),
}

/// One connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    header: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read timeout, so a hung server
    /// fails the run instead of stalling it.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: BufWriter::with_capacity(64 << 10, stream.try_clone()?),
            reader: BufReader::with_capacity(64 << 10, stream),
            header: String::new(),
        })
    }

    /// Queues one command line and its optional body.
    pub fn send(&mut self, line: &str, body: Option<&[u8]>) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if let Some(b) = body {
            self.writer.write_all(b)?;
        }
        Ok(())
    }

    /// Pushes everything queued onto the wire.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads the next reply; an `OK` body replaces `body`'s contents.
    pub fn recv(&mut self, body: &mut Vec<u8>) -> io::Result<Reply> {
        self.header.clear();
        if self.reader.read_line(&mut self.header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let header = self.header.trim_end();
        if let Some(len) = header.strip_prefix("OK ") {
            let len: usize = len
                .parse()
                .map_err(|_| invalid(format!("bad reply header '{header}'")))?;
            body.clear();
            body.resize(len, 0);
            self.reader.read_exact(body)?;
            Ok(Reply::Ok)
        } else if header.starts_with("ERR ") {
            Ok(Reply::Err(header.to_string()))
        } else {
            Err(invalid(format!("unparseable reply header '{header}'")))
        }
    }

    /// Sends one command and waits for its reply: the `OK` body as
    /// text, or the `ERR` line as the error.
    pub fn call(&mut self, line: &str, body: Option<&[u8]>) -> io::Result<Result<String, String>> {
        self.send(line, body)?;
        self.flush()?;
        let mut buf = Vec::new();
        Ok(match self.recv(&mut buf)? {
            Reply::Ok => Ok(String::from_utf8(buf).map_err(|_| invalid("non-UTF-8 body".into()))?),
            Reply::Err(line) => Err(line),
        })
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
