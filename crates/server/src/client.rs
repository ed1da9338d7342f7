//! A minimal blocking client for tests and the load generator.
//!
//! Requests may be pipelined ([`Client::send`] many, then
//! [`Client::recv`] many); responses come back in **commit order**, not
//! send order — the request id is the correlation key, exactly as the
//! wire contract specifies. [`Client::call`] keeps one request
//! outstanding and is therefore trivially ordered.
//!
//! Sends are buffered, so a burst of them costs one `write`: requests go
//! out when the buffer passes 16 KiB, on [`Client::flush`], and — the
//! rule that makes pipelining safe — before [`Client::recv`] blocks.

use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tokensync_core::codec::Codec;
use tokensync_spec::ProcessId;

use crate::wire::{decode_response, encode_request_into, FrameDecoder, Reply, WireStandard};

/// Bytes of buffered requests past which [`Client::send`] flushes.
const SEND_BUFFER: usize = 16 * 1024;

/// Blocking wire client for one standard `T`.
pub struct Client<T: WireStandard> {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded requests not yet written to the socket.
    out: Vec<u8>,
    next_id: u64,
    _standard: PhantomData<fn() -> T>,
}

impl<T> Client<T>
where
    T: WireStandard,
    T::Op: Codec,
    T::Resp: Codec,
{
    /// Connects to a server speaking standard `T`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            next_id: 1,
            _standard: PhantomData,
        })
    }

    /// Bounds how long [`Client::recv`] blocks (`None` = forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Queues one request without waiting for its response; returns the
    /// request id to correlate the eventual reply with. The request is
    /// on the wire once the send buffer fills, [`Client::flush`] runs, or
    /// [`Client::recv`] has to wait for the server.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure of a flush.
    pub fn send(&mut self, caller: ProcessId, op: &T::Op) -> io::Result<u64> {
        let request_id = self.next_id;
        self.next_id += 1;
        encode_request_into(&mut self.out, request_id, T::STANDARD, caller, op);
        if self.out.len() >= SEND_BUFFER {
            self.flush()?;
        }
        Ok(request_id)
    }

    /// Writes every buffered request to the socket.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn flush(&mut self) -> io::Result<()> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }

    /// Receives the next response frame (whatever request it answers),
    /// flushing buffered requests first if it has to wait for one.
    ///
    /// # Errors
    ///
    /// Socket errors, EOF before a full frame, or a malformed frame
    /// (bad CRC, short body, undecodable payload) — the client fails
    /// closed just like the server does.
    pub fn recv(&mut self) -> io::Result<(u64, Reply<T::Resp>)> {
        let mut buf = [0u8; 8 * 1024];
        loop {
            if let Some(body) = self
                .dec
                .try_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                return decode_response::<T::Resp>(body)
                    .map_err(|_| io::Error::from(io::ErrorKind::InvalidData));
            }
            self.flush()?;
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
            }
            self.dec.feed(&buf[..n]);
        }
    }

    /// One request, one response: send `op` and block for its reply.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`], plus a response that
    /// answers a different request id (a protocol violation when only
    /// one request is outstanding).
    pub fn call(&mut self, caller: ProcessId, op: &T::Op) -> io::Result<Reply<T::Resp>> {
        let sent = self.send(caller, op)?;
        let (request_id, reply) = self.recv()?;
        if request_id != sent {
            return Err(io::Error::from(io::ErrorKind::InvalidData));
        }
        Ok(reply)
    }
}
