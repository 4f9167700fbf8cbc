//! The session vocabulary — [`MapKind`], [`SessionStats`], [`SessionInfo`]
//! — and the whole-array spellings of the one-shard case of
//! [`crate::sharded`].
//!
//! There is one session mechanism, whatever its shard count, and one way
//! to read an open session: [`ClusterMachine::session_info`]. A close
//! reports a [`crate::ShardedReport`] however the session was opened.
//! [`ClusterMachine::open_session`] opens a one-shard session (every array
//! `Split` with no halo, so the scatter and the close gather are exact
//! copies); it and [`ClusterMachine::session_launch`] are thin front-ends
//! that speak whole arrays and a single [`KernelTicket`] where the general
//! API speaks names and per-shard handles.

use ftn_core::CompileError;
use ftn_interp::RtValue;
use ftn_shard::Partition;
use serde::Serialize;

use crate::machine::{ClusterMachine, KernelTicket};
use crate::sharded::{ShardArg, ShardCount, ShardedReport};

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

/// What one open session is: where its shards live, how each array is
/// split, and what it has moved so far ([`ClusterMachine::session_info`]).
#[derive(Clone, Debug)]
pub struct SessionInfo {
    /// shard → device, in shard order: its length is the shard count.
    pub devices: Vec<usize>,
    /// The per-shard split weights (uniform on a homogeneous pool).
    pub weights: Vec<f64>,
    /// Every mapped array, in map order.
    pub maps: Vec<MapInfo>,
    /// Transfer/launch/halo accounting so far.
    pub stats: SessionStats,
}

/// One array of an open session.
#[derive(Clone, Debug)]
pub struct MapInfo {
    /// The name launches address it by.
    pub name: String,
    /// The caller's global array, which the close writes back into.
    pub array: RtValue,
    /// How it was mapped.
    pub kind: MapKind,
    /// How its rows are spread over the shards.
    pub partition: Partition,
    /// Owned leading-dim rows per shard, in shard order: the realized split
    /// of a `Split` array (halo rows excluded), every row for a replicated
    /// or reduced one.
    pub shard_rows: Vec<usize>,
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
                RtValue::MemRef(m) => (s.env.arrays().iter())
                    .find(|a| a.global.buffer == m.buffer)
                    .map(|a| ShardArg::Array(a.name.clone()))
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
            elided: t.elided,
        })
    }

    /// An open session: its devices, split weights, maps and accounting.
    pub fn session_info(&self, session: u64) -> Option<SessionInfo> {
        let s = self.sessions.get(&session)?;
        let maps = (s.env.arrays().iter().zip(&s.kinds))
            .map(|(a, kind)| MapInfo {
                name: a.name.clone(),
                array: RtValue::MemRef(a.global.clone()),
                kind: *kind,
                partition: a.partition,
                shard_rows: a.slices.iter().map(|slice| slice.range.len).collect(),
            })
            .collect();
        Some(SessionInfo {
            devices: s.devices.clone(),
            weights: s.env.weights().to_vec(),
            maps,
            stats: s.stats.clone(),
        })
    }

    /// Close a session opened by [`ClusterMachine::open_session`]; the same
    /// call as [`ClusterMachine::close_sharded_session`].
    pub fn close_session(&mut self, session: u64) -> Result<ShardedReport, CompileError> {
        self.close_sharded_session(session)
    }

    /// Ids of the currently open sessions.
    pub fn open_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}
