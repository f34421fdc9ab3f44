//! A small blocking client for the wire protocol, used by the load
//! generator, the e2e suite and anyone scripting against the server.

use crate::protocol::{ErrorCode, Op};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

/// One framed server reply, as seen by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientReply {
    /// `OK` with the body.
    Ok(String),
    /// `ERR` with code and message.
    Err(ErrorCode, String),
}

impl ClientReply {
    /// The body of an `OK` reply, or an error string.
    pub fn into_ok(self) -> Result<String, String> {
        match self {
            ClientReply::Ok(body) => Ok(body),
            ClientReply::Err(code, msg) => Err(format!("{}: {msg}", code.as_str())),
        }
    }

    /// Whether this is an `OK` reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, ClientReply::Ok(_))
    }
}

/// A persistent connection to the server (requests are pipelined one
/// at a time: write command, read reply).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pending_trace: Option<u64>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7979`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            pending_trace: None,
        })
    }

    /// Attaches a client-minted trace id to the **next** request: it
    /// is sent ahead of the command as a `TRACE <hex>` protocol line
    /// (`specs/PROTOCOL.md`), making the request traced end-to-end and
    /// findable later with `maxmin-lp obs trace <id>`. Ids must be
    /// nonzero; zero is the untraced sentinel and is ignored.
    pub fn trace_next(&mut self, trace_id: u64) {
        if trace_id != 0 {
            self.pending_trace = Some(trace_id);
        }
    }

    /// Sends one command line (and optional body), reads one reply.
    pub fn request(&mut self, line: &str, body: Option<&[u8]>) -> std::io::Result<ClientReply> {
        if let Some(id) = self.pending_trace.take() {
            self.writer
                .write_all(format!("TRACE {id:016x}\n").as_bytes())?;
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if let Some(b) = body {
            self.writer.write_all(b)?;
        }
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<ClientReply> {
        read_reply_from(&mut self.reader)
    }

    /// `PUT`s instance text; returns the server-assigned content hash
    /// (16 hex digits).
    pub fn put(&mut self, instance_text: &str) -> std::io::Result<Result<String, String>> {
        let reply = self.request(
            &format!("PUT {}", instance_text.len()),
            Some(instance_text.as_bytes()),
        )?;
        Ok(reply.into_ok().map(|body| {
            body.trim()
                .strip_prefix("hash ")
                .unwrap_or(body.trim())
                .to_string()
        }))
    }

    /// `PUT_DELTA`s delta text; returns the reply's
    /// `(base, delta, new)` hashes on success.
    pub fn put_delta(
        &mut self,
        delta_text: &str,
    ) -> std::io::Result<Result<(String, String, String), String>> {
        let reply = self.request(
            &format!("PUT_DELTA {}", delta_text.len()),
            Some(delta_text.as_bytes()),
        )?;
        Ok(reply.into_ok().and_then(|body| {
            let field = |key: &str| {
                body.lines()
                    .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
                    .ok_or_else(|| format!("missing '{key}' in PUT_DELTA reply: {body:?}"))
            };
            Ok((field("base ")?, field("delta ")?, field("new ")?))
        }))
    }

    /// `SOLVE_DELTA` of a registered revision hash.
    pub fn solve_delta_hash(
        &mut self,
        revision: &str,
        big_r: usize,
    ) -> std::io::Result<ClientReply> {
        self.request(
            &run_line(Op::SolveDelta, &format!("hash:{revision}"), big_r),
            None,
        )
    }

    /// `SOLVE_DELTA` with the delta text sent inline: registers the
    /// revision like `PUT_DELTA` and solves it in one round trip.
    pub fn solve_delta_inline(
        &mut self,
        delta_text: &str,
        big_r: usize,
    ) -> std::io::Result<ClientReply> {
        let src = format!("inline:{}", delta_text.len());
        self.request(
            &run_line(Op::SolveDelta, &src, big_r),
            Some(delta_text.as_bytes()),
        )
    }

    /// Runs `op` against a previously `PUT` instance.
    pub fn run_hash(&mut self, op: Op, hash: &str, big_r: usize) -> std::io::Result<ClientReply> {
        self.request(&run_line(op, &format!("hash:{hash}"), big_r), None)
    }

    /// Runs `op` with the instance text sent inline.
    pub fn run_inline(
        &mut self,
        op: Op,
        instance_text: &str,
        big_r: usize,
    ) -> std::io::Result<ClientReply> {
        let src = format!("inline:{}", instance_text.len());
        self.request(&run_line(op, &src, big_r), Some(instance_text.as_bytes()))
    }

    /// Fetches `STATS` parsed into `(key, value)` pairs.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, u64)>> {
        let reply = self.request("STATS", None)?;
        let body = reply
            .into_ok()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(body
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect())
    }

    /// Fetches the `METRICS` body: the server's full registry in
    /// Prometheus text exposition format.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.request("METRICS", None)?
            .into_ok()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends `SHUTDOWN`; the server drains and exits.
    pub fn shutdown(&mut self) -> std::io::Result<ClientReply> {
        self.request("SHUTDOWN", None)
    }
}

/// Parses one framed reply (`OK {len}\n{body}` / `ERR {CODE} {msg}\n`)
/// off a buffered stream. Shared by the one-at-a-time [`Client`] and
/// the [`PipelinedClient`].
fn read_reply_from(reader: &mut BufReader<TcpStream>) -> std::io::Result<ClientReply> {
    let mut header = String::new();
    let n = reader.read_line(&mut header)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let header = header.trim_end();
    if let Some(rest) = header.strip_prefix("OK ") {
        let nbytes: usize = rest.trim().parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad OK length in '{header}'"),
            )
        })?;
        let mut body = vec![0u8; nbytes];
        reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(ClientReply::Ok(body))
    } else if let Some(rest) = header.strip_prefix("ERR ") {
        let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
        let code = ErrorCode::from_token(code).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown error code in '{header}'"),
            )
        })?;
        Ok(ClientReply::Err(code, msg.to_string()))
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparseable reply header '{header}'"),
        ))
    }
}

/// A connection that keeps several requests in flight: `send_*` queues
/// a command without waiting, [`recv`](PipelinedClient::recv) collects
/// the oldest outstanding reply. The server answers strictly in request
/// order (`specs/PROTOCOL.md`), so replies match sends FIFO. Used by
/// the load generator's open-pipeline mode, where per-connection
/// throughput is no longer bounded by one round trip per request.
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7979`).
    pub fn connect(addr: &str) -> std::io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(PipelinedClient {
            reader: BufReader::new(stream),
            writer,
            in_flight: 0,
        })
    }

    /// Queues one command line (and optional body). Buffered: nothing
    /// may reach the wire until [`flush`](Self::flush) or
    /// [`recv`](Self::recv).
    pub fn send(&mut self, line: &str, body: Option<&[u8]>) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if let Some(b) = body {
            self.writer.write_all(b)?;
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Queues a `TRACE <hex>` protocol line ahead of the next queued
    /// command. Trace lines get no reply of their own, so this does not
    /// count toward [`in_flight`](Self::in_flight). Zero (the untraced
    /// sentinel) is ignored.
    pub fn send_trace(&mut self, trace_id: u64) -> std::io::Result<()> {
        if trace_id != 0 {
            self.writer
                .write_all(format!("TRACE {trace_id:016x}\n").as_bytes())?;
        }
        Ok(())
    }

    /// Queues `op` against a previously `PUT` instance.
    pub fn send_run_hash(&mut self, op: Op, hash: &str, big_r: usize) -> std::io::Result<()> {
        self.send(&run_line(op, &format!("hash:{hash}"), big_r), None)
    }

    /// Pushes everything queued onto the wire.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Flushes, then reads the reply to the oldest outstanding request.
    pub fn recv(&mut self) -> std::io::Result<ClientReply> {
        assert!(self.in_flight > 0, "recv with no request in flight");
        self.writer.flush()?;
        let reply = read_reply_from(&mut self.reader)?;
        self.in_flight -= 1;
        Ok(reply)
    }

    /// Requests sent but not yet `recv`'d.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

pub(crate) fn run_line(op: Op, src: &str, big_r: usize) -> String {
    let verb = match op {
        Op::Solve => "SOLVE",
        Op::Optimum => "OPTIMUM",
        Op::Safe => "SAFE",
        Op::Info => "INFO",
        Op::SolveDelta => "SOLVE_DELTA",
    };
    match op {
        Op::Solve | Op::SolveDelta => format!("{verb} {src} R={big_r}"),
        _ => format!("{verb} {src}"),
    }
}

/// Convenience: one `STATS` value by key.
pub fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing stat '{key}' in {stats:?}"))
}
