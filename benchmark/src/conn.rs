//! A pipelining protocol connection. `pubsub_net::Client` sends one request
//! and waits for its ack; a load generator has to keep many in flight, so
//! this speaks the frame codec (`pubsub_net::frame`) over a bare socket.

use pubsub_net::{Ack, Frame, FrameReader, NEW_SESSION, PROTOCOL_VERSION};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    buf: Box<[u8; 65536]>,
}

impl Conn {
    /// Connects and opens a new session.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
            buf: Box::new([0; 65536]),
        };
        let hello = Frame::Hello {
            proto: PROTOCOL_VERSION,
            token: NEW_SESSION,
        };
        conn.send(&hello.to_bytes())?;
        match conn.recv()? {
            Frame::Ack(Ack::Hello { .. }) => Ok(conn),
            other => Err(format!("expected the hello ack, got {other:?}")),
        }
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Blocking reads time out after `timeout` ([`Conn::fill`] then returns
    /// 0); `None` waits forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), String> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())
    }

    /// In non-blocking mode [`Conn::fill`] returns 0 at once when the socket
    /// holds nothing.
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(|e| e.to_string())
    }

    /// One `read` into the frame buffer. Returns the bytes read; 0 means the
    /// read timed out (or would block).
    pub fn fill(&mut self) -> Result<usize, String> {
        match self.stream.read(&mut self.buf[..]) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(n) => {
                self.reader.extend(&self.buf[..n]);
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The next frame already buffered, if a whole one is.
    pub fn buffered(&mut self) -> Result<Option<Frame>, String> {
        self.reader.next_frame().map_err(|e| e.to_string())
    }

    /// Waits for the next frame (honouring the read timeout as an error).
    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(frame);
            }
            if self.fill()? == 0 {
                return Err("timed out waiting for a frame".into());
            }
        }
    }
}
