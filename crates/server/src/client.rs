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
//!
//! Each client owns one 8 KiB read buffer, allocated at connect: most
//! [`Client::recv`] calls find their reply already decoded from an
//! earlier read, and those cost no socket read and no buffer setup.

use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tokensync_core::codec::Codec;
use tokensync_spec::ProcessId;

use crate::wire::{decode_response, encode_request_into, FrameDecoder, Reply, WireStandard};

/// Bytes of buffered requests past which [`Client::send`] flushes.
const SEND_BUFFER: usize = 16 * 1024;

/// Bytes one socket read of [`Client::recv`] may take.
const READ_BUFFER: usize = 8 * 1024;

/// Blocking wire client for one standard `T`.
pub struct Client<T: WireStandard> {
    stream: TcpStream,
    dec: FrameDecoder,
    /// What one socket read lands in before the decoder takes it.
    buf: Box<[u8]>,
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
            buf: vec![0; READ_BUFFER].into_boxed_slice(),
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
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
            }
            self.dec.feed(&self.buf[..n]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    use tokensync_core::erc20::{Erc20Op, Erc20Resp};
    use tokensync_core::shared::ShardedErc20;

    use crate::wire::{encode_response_into, Status};

    /// A client connected to a one-connection loopback stub that runs
    /// `script` on its end of the socket.
    fn stub(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (Client<ShardedErc20>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound");
        let server = std::thread::spawn(move || script(listener.accept().expect("accept").0));
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        (client, server)
    }

    /// Appends the `Ok` response frame answering `id` with `Amount(id)`.
    fn frame(out: &mut Vec<u8>, id: u64) {
        encode_response_into(out, id, Status::Ok, |b| {
            Erc20Resp::Amount(id).encode_into(b)
        });
    }

    /// A thousand frames in one `write` span several 8 KiB reads, frames
    /// torn at the read boundaries; each comes back whole, in order.
    #[test]
    fn frames_of_one_write_come_back_in_order() {
        let ids: Vec<u64> = (0..1_000).map(|i| i * 7 + 3).collect();
        let mut bytes = Vec::new();
        ids.iter().for_each(|&id| frame(&mut bytes, id));
        assert!(bytes.len() > 2 * READ_BUFFER, "more than one read's worth");
        let (mut client, server) = stub(move |mut socket| socket.write_all(&bytes).unwrap());
        for &id in &ids {
            let (got, reply) = client.recv().expect("a whole frame");
            assert_eq!((got, reply), (id, Reply::Ok(Erc20Resp::Amount(id))));
        }
        server.join().unwrap();
    }

    /// A frame whose second half is written only after the client has
    /// read the first is received whole.
    #[test]
    fn frame_split_across_two_writes_is_received_whole() {
        let mut bytes = Vec::new();
        frame(&mut bytes, 1);
        let split = bytes.len() + 5;
        frame(&mut bytes, 2);
        let (mut client, server) = stub(move |mut socket| {
            socket.write_all(&bytes[..split]).unwrap();
            // The client's request says it has taken frame 1.
            let mut request = [0u8; 1];
            socket.read_exact(&mut request).unwrap();
            socket.write_all(&bytes[split..]).unwrap();
        });
        assert_eq!(client.recv().unwrap().0, 1);
        assert_eq!(client.dec.buffered(), 5, "frame 2's head was read");
        client
            .send(ProcessId::new(0), &Erc20Op::TotalSupply)
            .unwrap();
        client.flush().unwrap();
        let (id, reply) = client.recv().expect("frame 2 whole");
        assert_eq!((id, reply), (2, Reply::Ok(Erc20Resp::Amount(2))));
        server.join().unwrap();
    }

    /// A frame whose CRC does not match its body fails the client closed.
    #[test]
    fn bad_crc_frame_is_invalid_data() {
        let mut bytes = Vec::new();
        frame(&mut bytes, 1);
        bytes[4] ^= 0xff; // the CRC field
        let (mut client, server) = stub(move |mut socket| socket.write_all(&bytes).unwrap());
        let err = client.recv().expect_err("a corrupt frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        server.join().unwrap();
    }
}
