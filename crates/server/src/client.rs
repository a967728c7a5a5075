//! Blocking client for the solver service.
//!
//! One [`Client`] wraps one TCP connection; requests are answered in
//! order, so a client is also the unit of pipelining. All methods are
//! thin wrappers over [`Client::request`].

use crate::wire::{self, JobResult, JobSpec, Request, Response};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connected wire-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn protocol_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The error for a response other than the one asked for: the daemon's
/// own reason when it answered `Error` or `NotFound`.
fn unexpected(response: Response) -> io::Error {
    protocol_err(match response {
        Response::Error { message } => message,
        Response::NotFound { job } => format!("job {job} not found"),
        other => format!("unexpected response {other:?}"),
    })
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects to a daemon, failing after `timeout` instead of hanging in
    /// the OS connect when the daemon is down or the host is unreachable.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Self::from_stream(TcpStream::connect_timeout(&resolved, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // A submit frame can outgrow the write buffer and leave in two
        // segments; without this the second waits for the daemon's
        // delayed ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        wire::write_frame(&mut self.writer, &req.to_json())?;
        let payload = wire::read_frame(&mut self.reader)?
            .ok_or_else(|| protocol_err("server closed the connection".to_string()))?;
        Response::parse(&payload).map_err(protocol_err)
    }

    /// Submits a job of any [`JobMode`](crate::JobMode) — a search, a
    /// dynamic re-optimization, or a portfolio race. `Ok(Ok(id))` on
    /// admission, `Ok(Err(capacity))` on `QueueFull` backpressure.
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<Result<u64, u32>> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { job, .. } => Ok(Ok(job)),
            Response::QueueFull { capacity } => Ok(Err(capacity)),
            other => Err(unexpected(other)),
        }
    }

    /// A job's lifecycle state name.
    pub fn status(&mut self, job: u64) -> io::Result<String> {
        match self.request(&Request::Status { job })? {
            Response::JobStatus { state, .. } => Ok(state),
            other => Err(unexpected(other)),
        }
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&mut self, job: u64) -> io::Result<()> {
        match self.request(&Request::Cancel { job })? {
            Response::CancelAccepted { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a terminal job's result.
    pub fn result(&mut self, job: u64) -> io::Result<JobResult> {
        match self.request(&Request::Result { job })? {
            Response::JobResult { result, .. } => Ok(result),
            other => Err(unexpected(other)),
        }
    }

    /// Blocks until the job is terminal and returns its result: one
    /// `wait` request when the job finishes in time, re-sent only if the
    /// daemon answers before `timeout` with the job still unfinished.
    /// Fails with `TimedOut` if `timeout` elapses first.
    pub fn wait_result(&mut self, job: u64, timeout: Duration) -> io::Result<JobResult> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let timeout_ms = u64::try_from(left.as_millis()).unwrap_or(u64::MAX);
            match self.request(&Request::Wait { job, timeout_ms })? {
                Response::JobResult { result, .. } => return Ok(result),
                Response::JobStatus { state, .. } if Instant::now() >= deadline => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("job {job} still '{state}' after {timeout:?}"),
                    ))
                }
                Response::JobStatus { .. } => {}
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Tails a job's event stream (submitted with `record_events`),
    /// calling `on_event` with each JSONL event line as it arrives.
    /// Returns the total number of streamed events once the job is
    /// terminal and the stream drained.
    pub fn tail(&mut self, job: u64, mut on_event: impl FnMut(&str)) -> io::Result<u64> {
        wire::write_frame(&mut self.writer, &Request::Tail { job }.to_json())?;
        loop {
            let payload = wire::read_frame(&mut self.reader)?
                .ok_or_else(|| protocol_err("server closed the tail stream".to_string()))?;
            match Response::parse(&payload).map_err(protocol_err)? {
                Response::TailEvent { line, .. } => on_event(&line),
                Response::TailDone { events, .. } => return Ok(events),
                other => return Err(unexpected(other)),
            }
        }
    }

    /// The daemon's health snapshot: `(status, queued, running, workers)`.
    pub fn health(&mut self) -> io::Result<(String, u32, u32, u32)> {
        match self.request(&Request::Health)? {
            Response::Health {
                status,
                queued,
                running,
                workers,
            } => Ok((status, queued, running, workers)),
            other => Err(unexpected(other)),
        }
    }

    /// The daemon's Prometheus exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { prometheus } => Ok(prometheus),
            other => Err(unexpected(other)),
        }
    }

    /// The daemon's metrics as a mergeable JSON registry string. Parse
    /// with [`tsmo_obs::MetricsRegistry::from_json`] to fold the snapshot
    /// into another registry or diff two snapshots.
    pub fn metrics_json(&mut self) -> io::Result<String> {
        match self.request(&Request::MetricsJson)? {
            Response::MetricsJson { registry } => Ok(registry),
            other => Err(unexpected(other)),
        }
    }

    /// Drain-then-stop shutdown; returns the daemon's lifetime completed
    /// job count once the drain has finished.
    pub fn shutdown(&mut self) -> io::Result<u64> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownComplete { jobs_completed } => Ok(jobs_completed),
            other => Err(unexpected(other)),
        }
    }
}
