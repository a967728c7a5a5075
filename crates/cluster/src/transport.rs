//! TCP delivery for the multisearch rotation.
//!
//! [`PeerConn`] is one lazily-connected, mutex-serialized framed channel to
//! a peer node: callers write one request frame and read one response frame
//! under the lock, so concurrent searchers on the same node share a single
//! socket per peer without interleaving frames. A call that fails on a
//! cached stream retries once on a fresh connection (the peer may simply
//! have restarted); a call that cannot connect fails fast with
//! [`std::net::TcpStream::connect_timeout`].
//!
//! [`TcpTransport`] plugs that channel into
//! [`deme::multisearch::Transport`]: an exchange is delivered only when the
//! peer answers [`NodeMsg::ExchangeAck`] within the call, so the endpoint's
//! dead-peer skip, same-call failover, and probe re-admission work over
//! real sockets exactly as they do over in-process channels. Each ack'd
//! delivery feeds the `tsmo_peer_rtt_ms` histogram.

use crate::lock;
use crate::proto::{ExchangeEntry, NodeMsg};
use deme::multisearch::Transport;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsmo_core::FrontEntry;
use tsmo_obs::{metrics::names, Recorder};

/// Default connect / read / write timeout for node links.
pub const DEFAULT_NET_TIMEOUT: Duration = Duration::from_millis(2_000);

/// A shared, reconnecting request/response channel to one peer node.
pub struct PeerConn {
    addr: String,
    timeout: Duration,
    stream: Mutex<Option<TcpStream>>,
}

impl PeerConn {
    /// A lazily-connected channel to `addr` (`host:port`); every connect,
    /// read, and write is bounded by `timeout`.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        Self {
            addr: addr.into(),
            timeout,
            stream: Mutex::new(None),
        }
    }

    /// The peer's address as given.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let sa: SocketAddr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?;
        let stream = TcpStream::connect_timeout(&sa, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn roundtrip(stream: &mut TcpStream, req: &NodeMsg) -> io::Result<NodeMsg> {
        tsmo_obs::frame::write_frame(stream, &req.to_json())?;
        match tsmo_obs::frame::read_frame(stream)? {
            Some(text) => {
                NodeMsg::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection mid-request",
            )),
        }
    }

    /// Sends one request and reads its response, holding the connection
    /// lock for the whole round trip. A failure on a cached stream gets
    /// one retry over a fresh connection; the stream is dropped on any
    /// error so the next call starts clean.
    pub fn call(&self, req: &NodeMsg) -> io::Result<NodeMsg> {
        let mut guard = lock(&self.stream);
        let had_cached = guard.is_some();
        if guard.is_none() {
            *guard = Some(self.connect()?);
        }
        let result = Self::roundtrip(guard.as_mut().expect("just connected"), req);
        match result {
            Ok(resp) => Ok(resp),
            Err(first) => {
                *guard = None;
                if !had_cached {
                    return Err(first); // a fresh connection failed; the peer is down
                }
                let mut fresh = self.connect()?;
                let resp = Self::roundtrip(&mut fresh, req)?;
                *guard = Some(fresh);
                Ok(resp)
            }
        }
    }
}

/// Slot-addressed routing for a mesh whose membership can change mid-run.
///
/// Each member slot maps to its current address (empty while the slot is
/// dead or vacant); connections are cached per *address*, so when a
/// `MemberUpdate` moves a slot to a new address the next send simply
/// resolves a fresh [`PeerConn`] — the searchers' links never rebuild, and
/// the endpoint's probe re-admission heals the route as soon as the new
/// occupant acks.
pub struct RouteTable {
    timeout: Duration,
    inner: Mutex<RouteInner>,
}

struct RouteInner {
    /// Slot index → current address; `""` marks a dead or vacant slot.
    addrs: Vec<String>,
    conns: HashMap<String, Arc<PeerConn>>,
}

impl RouteTable {
    /// A table with every slot at its initial address.
    pub fn new(addrs: Vec<String>, timeout: Duration) -> Self {
        Self {
            timeout,
            inner: Mutex::new(RouteInner {
                addrs,
                conns: HashMap::new(),
            }),
        }
    }

    /// Replaces the slot → address map (empty string = dead slot) and
    /// drops cached connections to addresses no longer routed to.
    pub fn update(&self, addrs: Vec<String>) {
        let mut inner = lock(&self.inner);
        inner.addrs = addrs;
        let keep: Vec<String> = inner.addrs.clone();
        inner.conns.retain(|addr, _| keep.iter().any(|a| a == addr));
    }

    /// The slot's current address, if it has one.
    pub fn addr(&self, slot: usize) -> Option<String> {
        let inner = lock(&self.inner);
        inner.addrs.get(slot).filter(|a| !a.is_empty()).cloned()
    }

    /// The shared connection to the slot's current occupant; `None` while
    /// the slot is dead. Connections are created lazily and cached.
    pub fn conn(&self, slot: usize) -> Option<Arc<PeerConn>> {
        let mut inner = lock(&self.inner);
        let addr = inner.addrs.get(slot).filter(|a| !a.is_empty())?.clone();
        let timeout = self.timeout;
        Some(Arc::clone(
            inner
                .conns
                .entry(addr.clone())
                .or_insert_with(|| Arc::new(PeerConn::new(addr, timeout))),
        ))
    }
}

/// Delivers one exchange over `conn` and waits for the ack; `Some(rtt)` is
/// the round-trip time, `None` means the peer did not take delivery.
/// Shared by [`TcpTransport`] and the transport conformance tests so both
/// exercise the identical delivery path.
pub fn deliver_exchange(
    conn: &PeerConn,
    from: usize,
    to: usize,
    entry: &FrontEntry,
) -> Option<Duration> {
    let req = NodeMsg::Exchange {
        from: from as u64,
        to: to as u64,
        entry: ExchangeEntry::from_front(entry),
    };
    let started = Instant::now();
    match conn.call(&req) {
        Ok(NodeMsg::ExchangeAck) => Some(started.elapsed()),
        // An `Error` reply (no job running, unknown searcher) and a socket
        // failure both mean "not delivered": the rotation fails over.
        Ok(_) | Err(_) => None,
    }
}

/// A [`Transport`] that carries [`FrontEntry`] exchanges to one remote
/// searcher, either over a fixed shared [`PeerConn`] or via a
/// [`RouteTable`] that resolves the peer's *current* address at send time.
pub struct TcpTransport {
    route: Route,
    from: usize,
    to: usize,
    recorder: Arc<dyn Recorder>,
}

enum Route {
    Fixed(Arc<PeerConn>),
    Slot { table: Arc<RouteTable>, slot: usize },
}

impl TcpTransport {
    /// A link from local searcher `from` to remote searcher `to` over a
    /// fixed connection (static-membership meshes).
    pub fn new(conn: Arc<PeerConn>, from: usize, to: usize, recorder: Arc<dyn Recorder>) -> Self {
        Self {
            route: Route::Fixed(conn),
            from,
            to,
            recorder,
        }
    }

    /// A link whose destination node is resolved through `table` on every
    /// send, so membership changes reroute it without rebuilding links. A
    /// send while the slot is dead fails like an unreachable peer.
    pub fn routed(
        table: Arc<RouteTable>,
        slot: usize,
        from: usize,
        to: usize,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        Self {
            route: Route::Slot { table, slot },
            from,
            to,
            recorder,
        }
    }
}

impl Transport<FrontEntry> for TcpTransport {
    fn send(&self, msg: FrontEntry) -> Result<(), FrontEntry> {
        let conn = match &self.route {
            Route::Fixed(conn) => Arc::clone(conn),
            Route::Slot { table, slot } => match table.conn(*slot) {
                Some(conn) => conn,
                None => return Err(msg), // dead slot: fail like a dead peer
            },
        };
        match deliver_exchange(&conn, self.from, self.to, &msg) {
            Some(rtt) => {
                self.recorder
                    .observe(names::PEER_RTT_MS, rtt.as_secs_f64() * 1_000.0);
                Ok(())
            }
            None => Err(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    fn one_shot_server(reply: NodeMsg) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let _ = tsmo_obs::frame::read_frame(&mut stream);
                let _ = tsmo_obs::frame::write_frame(&mut stream, &reply.to_json());
                // Drain until the client hangs up so the test stays quiet.
                let mut sink = [0u8; 64];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            }
        });
        addr
    }

    #[test]
    fn call_round_trips_one_frame() {
        let addr = one_shot_server(NodeMsg::HelloAck { node: 3 });
        let conn = PeerConn::new(addr.to_string(), DEFAULT_NET_TIMEOUT);
        let resp = conn.call(&NodeMsg::Hello { node: 0 }).expect("call");
        assert_eq!(resp, NodeMsg::HelloAck { node: 3 });
    }

    #[test]
    fn call_fails_fast_when_nothing_listens() {
        // Bind-then-drop yields a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let conn = PeerConn::new(addr.to_string(), Duration::from_millis(200));
        let started = Instant::now();
        assert!(conn.call(&NodeMsg::Status).is_err());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "refused connection must not hang"
        );
    }

    #[test]
    fn route_table_reroutes_a_slot_and_voids_dead_routes() {
        let table = RouteTable::new(
            vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            DEFAULT_NET_TIMEOUT,
        );
        assert_eq!(table.addr(1).as_deref(), Some("127.0.0.1:2"));
        let before = table.conn(1).expect("routed");
        table.update(vec!["127.0.0.1:1".into(), "127.0.0.1:9".into()]);
        let after = table.conn(1).expect("rerouted");
        assert_ne!(before.addr(), after.addr(), "slot follows the new address");
        table.update(vec!["127.0.0.1:1".into(), String::new()]);
        assert!(table.conn(1).is_none(), "dead slot has no route");
        assert!(table.addr(9).is_none(), "out-of-range slot has no route");
    }

    #[test]
    fn undelivered_exchange_hands_the_entry_back() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let conn = Arc::new(PeerConn::new(addr.to_string(), Duration::from_millis(200)));
        let transport = TcpTransport::new(conn, 0, 1, tsmo_obs::noop());
        let entry = ExchangeEntry {
            objectives: [100.0, 2.0, 0.0],
            routes: vec![vec![1, 2]],
        }
        .to_front();
        let returned = transport.send(entry.clone()).expect_err("peer is down");
        assert_eq!(
            returned.objectives.to_vector(),
            entry.objectives.to_vector()
        );
    }
}
