//! tsmo-cluster — distributed multi-process collaborative multisearch.
//!
//! The paper's collaborative variant (§III.E) runs `P` searchers that
//! exchange archive-improving solutions over rotating communication lists.
//! In-process, those searchers are threads and the links are channels
//! (`ParallelVariant::Collaborative`). This crate stretches the same search across
//! machines: a [`Noded`] daemon hosts one node's share of the
//! searchers, exchanges travel as length-prefixed JSON frames over TCP
//! ([`proto`]), and [`mesh::run_mesh`] bootstraps the mesh, dispatches the
//! job, and merges the per-node fronts into one global non-dominated
//! archive.
//!
//! The rotation semantics do not fork: [`transport::TcpTransport`]
//! implements the same [`deme::multisearch::Transport`] contract as the
//! channel transport (failure detected within the send, message handed
//! back), so dead-peer skip, same-call failover, and probe re-admission
//! carry over to real sockets unchanged — killing a node mid-run leaves
//! the survivors converging on a valid merged front.
//!
//! For reproducibility, [`elastic::run_elastic`] runs the whole mesh
//! single-threaded over recorded in-process loopback transports: the same
//! seeds, lists, and perturbations as the TCP build, but with a pinned
//! delivery order, so a run and its replay produce byte-identical merged
//! fronts — at fixed membership ([`ElasticMeshConfig::fixed`]) and under
//! scripted churn alike.

#![warn(missing_docs)]

pub mod elastic;
pub mod membership;
pub mod mesh;
pub mod node;
pub mod proto;
pub mod transport;

pub use elastic::{
    fingerprint_hash, front_fingerprint, replay_elastic, run_elastic, ElasticMeshConfig,
    ElasticOutcome, ExchangeRecord, NetRecord,
};
pub use membership::{
    assign_slices, owner_of, parse_churn, ChurnEvent, ChurnKind, Member, Membership,
};
pub use mesh::{run_mesh, MeshClient, MeshOutcome};
pub use node::{NodeConfig, NodeReport, Noded, DEFAULT_PEER_TIMEOUT};
pub use proto::{ExchangeEntry, MeshJob, NodeMsg};
pub use transport::{PeerConn, RouteTable, TcpTransport, DEFAULT_NET_TIMEOUT};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m` even if a thread panicked while holding it: every lock here
/// guards state a panic leaves consistent, and a daemon keeps serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
