//! The TCP client of `gass_serve` the benchmark drives: one connection,
//! requests pipelined, replies matched to requests by position. It speaks
//! through `gass_serve::protocol`'s own encoders and framing, so every
//! request pays what a real client pays.

use crate::trace::{Name, Tracer};
use gass_core::index::QueryParams;
use gass_serve::protocol::{
    decode_response, encode_request, queue_frame, read_frame, write_frame, QueryRequest,
    Request, Response,
};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests kept in flight by the closed-loop rounds.
pub const IN_FLIGHT: usize = 32;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

pub fn query_request(query: &[f32], p: &QueryParams) -> Request {
    Request::Query(QueryRequest {
        k: p.k,
        beam_width: p.beam_width,
        seed_count: p.seed_count,
        rerank_factor: p.rerank_factor,
        deadline_us: 0,
        query: query.to_vec(),
    })
}

/// What one reply turned out to be.
pub enum Reply {
    Neighbors(Vec<(u32, f32)>),
    /// Any non-`Ok` status or a reply of the wrong kind.
    Refused,
}

fn classify(resp: Response) -> Reply {
    match resp {
        Response::Neighbors(ns) => Reply::Neighbors(ns),
        _ => Reply::Refused,
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        let reader = BufReader::with_capacity(64 << 10, stream.try_clone()?);
        Ok(Conn { reader, writer: BufWriter::with_capacity(64 << 10, stream) })
    }

    fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(eof)?;
        decode_response(&payload)
    }

    /// One request, one reply.
    pub fn ping(&mut self) -> io::Result<()> {
        write_frame(&mut self.writer, &encode_request(&Request::Ping))?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(io::Error::other(format!("expected a pong, got {other:?}"))),
        }
    }

    /// Sends `queries(i)` for `i in 0..count` keeping [`IN_FLIGHT`] requests
    /// outstanding, and hands every reply to `on_reply(i, reply, latency)`.
    /// Returns once the pipeline is drained. With the tracer on, every
    /// protocol and socket call is a span of the request it belongs to.
    pub fn pipelined<'q>(
        &mut self,
        count: usize,
        params: &QueryParams,
        queries: impl Fn(usize) -> &'q [f32],
        tr: &mut Tracer,
        mut on_reply: impl FnMut(usize, Reply, Duration),
    ) -> io::Result<()> {
        let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(IN_FLIGHT);
        let (mut sent, mut recvd) = (0usize, 0usize);
        while recvd < count {
            while sent < count && sent - recvd < IN_FLIGHT {
                let qid = sent as u32;
                let frame = tr.span(Name::ClientEncode, qid, |_| {
                    (encode_request(&query_request(queries(sent), params)), 0)
                });
                sent_at.push_back(Instant::now());
                tr.span(Name::ClientSend, qid, |_| (queue_frame(&mut self.writer, &frame), 0))?;
                sent += 1;
            }
            tr.span(Name::ClientSend, sent as u32 - 1, |_| (self.writer.flush(), 0))?;
            // Block for one reply, then take every reply already buffered
            // before refilling the pipeline: sends batch up the way the
            // server's replies do.
            loop {
                let qid = recvd as u32;
                let payload = tr
                    .span(Name::ClientRecv, qid, |_| (read_frame(&mut self.reader), 0))?
                    .ok_or_else(eof)?;
                let resp =
                    tr.span(Name::ClientDecode, qid, |_| (decode_response(&payload), 0))?;
                let now = Instant::now();
                let start = sent_at.pop_front().expect("a reply per request in flight");
                tr.record(Name::Request, qid, start, now);
                on_reply(recvd, classify(resp), now - start);
                recvd += 1;
                if recvd == sent || self.reader.buffer().is_empty() {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Open loop: request `i` is due at `i / rate` seconds and is sent then
    /// (or at once, if the generator is behind), whatever the server is
    /// doing. Latency runs from the *due* time, so a stall charges every
    /// request it delays. Returns per-request `(latency, reply)` in order
    /// and how late each send was.
    pub fn open_loop<'q>(
        &mut self,
        count: usize,
        rate: f64,
        params: &QueryParams,
        queries: impl Fn(usize) -> &'q [f32] + Send,
    ) -> io::Result<OpenLoop> {
        let (tx, rx) = mpsc::channel::<Instant>();
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        let t0 = Instant::now() + Duration::from_millis(2);
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> io::Result<Vec<Duration>> {
                let mut late = Vec::with_capacity(count);
                for i in 0..count {
                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                    let mut now = Instant::now();
                    if now < due {
                        // Nothing else to send before `due`: push out what
                        // is buffered, then wait.
                        writer.flush()?;
                        while now < due {
                            let left = due - now;
                            if left > Duration::from_micros(200) {
                                std::thread::sleep(left - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                            now = Instant::now();
                        }
                    }
                    late.push(now - due);
                    // The receiver must know the due time before the reply
                    // can possibly arrive.
                    if tx.send(due).is_err() {
                        break;
                    }
                    queue_frame(writer, &encode_request(&query_request(queries(i), params)))?;
                }
                writer.flush()?;
                Ok(late)
            });
            let mut replies = Vec::with_capacity(count);
            let mut recv_err = None;
            for _ in 0..count {
                let due = match rx.recv() {
                    Ok(d) => d,
                    Err(_) => break, // the sender failed; its error is reported below
                };
                match read_frame(reader).and_then(|p| decode_response(&p.ok_or_else(eof)?)) {
                    Ok(resp) => replies
                        .push((Instant::now().saturating_duration_since(due), classify(resp))),
                    Err(e) => {
                        recv_err = Some(e);
                        break;
                    }
                }
            }
            // Unblocks a sender still waiting on the channel or the socket.
            drop(rx);
            let late = sender.join().expect("open-loop sender panicked")?;
            match recv_err {
                Some(e) => Err(e),
                None => Ok(OpenLoop { replies, late }),
            }
        })
    }
}

pub struct OpenLoop {
    pub replies: Vec<(Duration, Reply)>,
    pub late: Vec<Duration>,
}
