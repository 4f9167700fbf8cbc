//! Single-device sessions — the N = 1 case of [`crate::sharded`].
//!
//! There is one session mechanism: [`ClusterMachine::open_session`] opens a
//! one-shard sharded session (every array `Split` with no halo, so the
//! scatter and the close gather are exact copies), and the calls below are
//! thin front-ends that speak whole arrays and a single [`KernelTicket`]
//! where the general API speaks names and per-shard handles. The shared
//! vocabulary — [`MapKind`], [`SessionStats`] — lives here too.

use ftn_core::CompileError;
use ftn_interp::RtValue;
use ftn_shard::Partition;
use serde::Serialize;

use crate::machine::{ClusterMachine, KernelTicket};
use crate::sharded::{ShardArg, ShardCount};

/// OpenMP-style map kind for a session array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// Uploaded at open, not fetched at close (`map(to:)`).
    To,
    /// Device copy starts zeroed (uninitialized), fetched at close
    /// (`map(from:)`).
    From,
    /// Uploaded at open and fetched at close (`map(tofrom:)`).
    ToFrom,
}

impl MapKind {
    /// Parse the serve-API spelling: `to` | `from` | `tofrom`.
    pub fn parse(s: &str) -> Option<MapKind> {
        match s {
            "to" => Some(MapKind::To),
            "from" => Some(MapKind::From),
            "tofrom" => Some(MapKind::ToFrom),
            _ => None,
        }
    }
}

/// Transfer/launch accounting for one session.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct SessionStats {
    /// Kernel-level jobs launched (one per shard).
    pub launches: u64,
    /// Host→device uploads actually performed (open staging + halo-refresh
    /// splices).
    pub staged_uploads: u64,
    /// Bytes those uploads moved.
    pub staged_bytes: u64,
    /// Host↔device transfers skipped because the shard sub-buffer was
    /// already resident on its device.
    pub elided_transfers: u64,
    /// Device→host downloads at close.
    pub fetched_downloads: u64,
    /// Inter-launch halo refreshes executed.
    pub halo_refreshes: u64,
    /// Boundary ghost rows re-seeded across those refreshes, summed over
    /// the session's split arrays.
    pub halo_rows: u64,
    /// Bytes of boundary rows a refresh moved, counted once per ghost
    /// block (host-bounced blocks cross PCIe twice — donor gather plus
    /// recipient splice; same-device donor copies are free and still
    /// counted here as rows refreshed).
    pub halo_bytes: u64,
}

/// Result of closing a session.
#[derive(Clone, Debug, Serialize)]
pub struct SessionReport {
    /// The closed session's id.
    pub session: u64,
    /// The device the session was resident on.
    pub device: usize,
    /// Final transfer/launch accounting.
    pub stats: SessionStats,
}

impl ClusterMachine {
    /// Open a persistent data environment on one device: map each `(name,
    /// array, kind)` once. `to`/`tofrom` arrays are uploaded (charged as
    /// PCIe transfers); `from` arrays get a zeroed device copy, exactly like
    /// a `map(from:)` data-region entry. The device is the least-loaded one,
    /// round-robin on ties. Returns the session id.
    pub fn open_session(&mut self, maps: &[(&str, RtValue, MapKind)]) -> Result<u64, CompileError> {
        let split: Vec<(&str, RtValue, MapKind, Partition)> = maps
            .iter()
            .map(|(name, value, kind)| (*name, value.clone(), *kind, Partition::Split { halo: 0 }))
            .collect();
        self.open_sharded_session(&split, ShardCount::Fixed(1))
    }

    /// Launch one kernel-level job against a one-shard session's resident
    /// buffers. Memref arguments must be arrays mapped by this session (each
    /// is resolved back to its map name). The device copies stay
    /// authoritative (no per-launch writeback); host memory is synced once
    /// at close. Returns the ticket whose handle must be waited.
    pub fn session_launch(
        &mut self,
        session: u64,
        kernel: &str,
        args: &[RtValue],
    ) -> Result<KernelTicket, CompileError> {
        let err = |msg: String| CompileError::new("cluster-session", msg);
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| err(format!("no open session {session}")))?;
        if s.devices.len() != 1 {
            return Err(err(format!(
                "session {session} spans {} shards; launch it with sharded_launch",
                s.devices.len()
            )));
        }
        let mut named = Vec::with_capacity(args.len());
        for a in args {
            named.push(match a {
                RtValue::MemRef(m) => s
                    .maps
                    .iter()
                    .find(|(_, id, _, _)| *id == m.buffer)
                    .map(|(name, _, _, _)| ShardArg::Array(name.clone()))
                    .ok_or_else(|| {
                        err(format!(
                            "launch argument buffer {:?} is not mapped by session {session}",
                            m.buffer
                        ))
                    })?,
                scalar => ShardArg::Scalar(scalar.clone()),
            });
        }
        let mut t = self.sharded_launch(session, kernel, &named)?;
        Ok(KernelTicket {
            handle: t.handles.pop().expect("one shard, one handle"),
            device: t.devices[0],
            staged: t.staged,
            staged_bytes: t.staged_bytes,
            elided: t.elided,
        })
    }

    /// Current accounting for an open session.
    pub fn session_stats(&self, session: u64) -> Option<SessionStats> {
        self.sessions.get(&session).map(|s| s.stats.clone())
    }

    /// The `(name, array, kind)` mappings of an open session, in map order.
    pub fn session_maps(&self, session: u64) -> Option<Vec<(String, RtValue, MapKind)>> {
        let maps = self.sharded_maps(session)?;
        Some(maps.into_iter().map(|(n, v, k, _)| (n, v, k)).collect())
    }

    /// Close a session: wait for its launches in flight, fetch every
    /// `from`/`tofrom` array back into host memory (charging the
    /// device→host transfers a data-region exit performs), and release the
    /// data environment.
    pub fn close_session(&mut self, session: u64) -> Result<SessionReport, CompileError> {
        let report = self.close_sharded_session(session)?;
        Ok(SessionReport {
            session,
            device: report.devices[0],
            stats: report.stats,
        })
    }

    /// Ids of the currently open sessions.
    pub fn open_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}
