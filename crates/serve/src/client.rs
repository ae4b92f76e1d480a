//! A minimal blocking client for the serving protocol.
//!
//! Used by the CLI and serve e2e tests; speaks
//! exactly the [`crate::protocol`] encoders/decoders, so every client
//! round-trip also exercises the real wire format.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, QueryRequest, Request, Response,
};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// One blocking connection to a `gass serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &encode_request(req))?;
        match read_frame(&mut self.reader)? {
            Some(payload) => decode_response(&payload),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )),
        }
    }

    /// One k-NN query with explicit search parameters.
    pub fn query(&mut self, q: QueryRequest) -> io::Result<Response> {
        self.request(&Request::Query(q))
    }

    /// One k-NN query with the serving defaults (`seed_count 16`,
    /// `rerank_factor 4`, no deadline).
    pub fn query_simple(
        &mut self,
        query: &[f32],
        k: usize,
        beam_width: usize,
    ) -> io::Result<Response> {
        self.query(QueryRequest {
            k,
            beam_width,
            seed_count: 16,
            rerank_factor: 4,
            deadline_us: 0,
            query: query.to_vec(),
        })
    }

    /// Fetches the stats-endpoint JSON document.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a stats response, got {other:?}"),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a pong, got {other:?}"),
            )),
        }
    }

    /// Requests an orderly server shutdown (drain, then exit).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a shutdown ack, got {other:?}"),
            )),
        }
    }
}
