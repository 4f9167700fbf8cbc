//! Attribution rollups: per-kernel, per-session and per-device cost
//! counters folded in where jobs complete ([`crate::ClusterMachine`]'s
//! completion bookkeeping, shared by worker outcomes and sessionless host
//! calls), behind `GET /profile/top` in the serve stack.
//!
//! Spans answer *where did this request's time go*; rollups answer the dual
//! fleet-level question — *which kernel / session / device is burning the
//! pool* — without scanning span rings. Each completed job adds one
//! observation to up to three rows: its kernel (kernel jobs only), its
//! submitting session (when launched through one), and its device (always).
//! Costs tracked per row: completed jobs, simulated device cycles, simulated
//! wall seconds, wall-clock queue wait, and bytes moved host↔device
//! (staged uploads plus writebacks). A host call runs where it is called:
//! it waits in no queue and stages nothing, so it adds neither.
//!
//! A device's row is part of its one ledger (`DeviceLedger`), which
//! `pool_stats()` reads too: nothing about a device is recorded twice.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use ftn_host::RunStats;
use serde::Serialize;

/// The attribution axis of a [`crate::ClusterMachine::rollups`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupBy {
    /// One row per kernel name (kernel jobs only).
    Kernel,
    /// One row per submitting session id (session-launched jobs only).
    Session,
    /// One row per pool device index (every job).
    Device,
}

impl RollupBy {
    /// Parse the `by=` query value used by `GET /profile/top`.
    pub fn parse(text: &str) -> Result<RollupBy, String> {
        match text {
            "kernel" => Ok(RollupBy::Kernel),
            "session" => Ok(RollupBy::Session),
            "device" => Ok(RollupBy::Device),
            other => Err(format!(
                "unknown rollup axis '{other}' (use kernel|session|device)"
            )),
        }
    }
}

/// Accumulated cost of one attribution key (a kernel, session or device).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RollupRow {
    /// The kernel name, session id or device index (as text).
    pub key: String,
    /// Completed jobs attributed to this key.
    pub jobs: u64,
    /// Simulated device cycles consumed.
    pub sim_cycles: u64,
    /// Simulated device occupancy (kernel wall + transfer) in seconds.
    pub sim_seconds: f64,
    /// Wall-clock enqueue→dispatch wait in seconds.
    pub queue_wait_seconds: f64,
    /// Bytes moved host↔device (staged uploads + writebacks).
    pub bytes_moved: u64,
}

impl RollupRow {
    /// Add one job's work: its cycles and busy simulated seconds, its queue
    /// wait and the bytes it moved.
    fn add(&mut self, stats: &RunStats, queue_wait_seconds: f64, bytes_moved: u64) {
        self.sim_cycles += stats.total_cycles;
        self.sim_seconds += crate::pool::busy_seconds(stats);
        self.queue_wait_seconds += queue_wait_seconds;
        self.bytes_moved += bytes_moved;
    }
}

/// The row of `key` in `table`, started empty. Looked up by reference:
/// only a row that is new allocates its key.
fn row<'t, K, Q>(table: &'t mut BTreeMap<K, RollupRow>, key: &Q) -> &'t mut RollupRow
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ToString + ?Sized,
{
    if !table.contains_key(key) {
        let row = RollupRow {
            key: key.to_string(),
            ..RollupRow::default()
        };
        table.insert(key.to_owned(), row);
    }
    table.get_mut(key).expect("the row exists")
}

/// Everything one device's completed jobs cost: its attribution row (jobs,
/// cycles, busy simulated seconds, queue wait, bytes) and its accumulated
/// run statistics, written once per job.
#[derive(Debug, Default)]
pub(crate) struct DeviceLedger {
    pub(crate) row: RollupRow,
    pub(crate) stats: RunStats,
    /// Device arena size after the worker's last job (host calls never touch
    /// a worker's arena).
    pub(crate) arena_buffers: usize,
}

/// The machine's rollup tables: one map per attribution axis, and the
/// per-device ledgers.
#[derive(Debug, Default)]
pub(crate) struct Rollups {
    by_kernel: BTreeMap<String, RollupRow>,
    by_session: BTreeMap<u64, RollupRow>,
    pub(crate) devices: Vec<DeviceLedger>,
}

impl Rollups {
    /// Empty tables for a pool of `devices` devices.
    pub(crate) fn new(devices: usize) -> Rollups {
        let ledger = |d: usize| {
            let row = RollupRow {
                key: d.to_string(),
                ..RollupRow::default()
            };
            DeviceLedger {
                row,
                ..DeviceLedger::default()
            }
        };
        let devices = (0..devices).map(ledger).collect();
        Rollups {
            devices,
            ..Rollups::default()
        }
    }

    /// Fold one completed job into its device's ledger, and into its
    /// kernel's and session's rows when it has them.
    pub(crate) fn record(
        &mut self,
        (kernel, session): (Option<&str>, Option<u64>),
        device: usize,
        stats: &RunStats,
        queue_wait_seconds: f64,
        bytes_moved: u64,
    ) {
        let kernel = kernel.map(|k| row(&mut self.by_kernel, k));
        let session = session.map(|s| row(&mut self.by_session, &s));
        let ledger = &mut self.devices[device];
        for row in [kernel, session, Some(&mut ledger.row)]
            .into_iter()
            .flatten()
        {
            row.jobs += 1;
            row.add(stats, queue_wait_seconds, bytes_moved);
        }
        ledger.stats.merge(stats);
    }

    /// Fold what a job's patches cost — an open's staging, or a halo
    /// refresh's riding on it — into its device's ledger alone: no job of
    /// their own, no kernel's or session's.
    pub(crate) fn carry(&mut self, device: usize, stats: &RunStats, bytes_moved: u64) {
        let ledger = &mut self.devices[device];
        ledger.row.add(stats, 0.0, bytes_moved);
        ledger.stats.merge(stats);
    }

    /// The rows of one axis, costliest first (by simulated cycles, then by
    /// wall seconds for cycle-free rows like uploads). A device that has
    /// completed nothing has no row.
    pub(crate) fn rows(&self, by: RollupBy) -> Vec<RollupRow> {
        let mut rows: Vec<RollupRow> = match by {
            RollupBy::Kernel => self.by_kernel.values().cloned().collect(),
            RollupBy::Session => self.by_session.values().cloned().collect(),
            RollupBy::Device => (self.devices.iter().map(|d| &d.row))
                .filter(|row| row.jobs > 0)
                .cloned()
                .collect(),
        };
        rows.sort_by(|a, b| {
            b.sim_cycles
                .cmp(&a.sim_cycles)
                .then(b.sim_seconds.total_cmp(&a.sim_seconds))
                .then(a.key.cmp(&b.key))
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job's statistics: `cycles` over `busy` simulated seconds.
    fn ran(cycles: u64, busy: f64) -> RunStats {
        RunStats {
            total_cycles: cycles,
            kernel_wall_seconds: busy,
            ..RunStats::default()
        }
    }

    #[test]
    fn rows_rank_by_cycles_and_attribute_per_axis() {
        let mut r = Rollups::new(2);
        r.record(
            (Some("saxpy_kernel0"), Some(1)),
            0,
            &ran(100, 0.5),
            0.01,
            64,
        );
        r.record(
            (Some("saxpy_kernel0"), Some(1)),
            1,
            &ran(150, 0.6),
            0.02,
            32,
        );
        r.record((Some("sdot_kernel0"), Some(2)), 0, &ran(900, 1.0), 0.03, 16);
        // An upload: no kernel, no session attribution, device row only.
        r.record((None, None), 1, &ran(0, 0.1), 0.0, 4096);

        let kernels = r.rows(RollupBy::Kernel);
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].key, "sdot_kernel0", "most cycles first");
        assert_eq!(kernels[0].sim_cycles, 900);
        assert_eq!(kernels[1].key, "saxpy_kernel0");
        assert_eq!(kernels[1].jobs, 2);
        assert_eq!(kernels[1].sim_cycles, 250);
        assert_eq!(kernels[1].bytes_moved, 96);
        assert!((kernels[1].queue_wait_seconds - 0.03).abs() < 1e-12);

        let sessions = r.rows(RollupBy::Session);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].key, "2");

        let devices = r.rows(RollupBy::Device);
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].key, "0", "device 0 has 1000 cycles");
        assert_eq!(devices[1].jobs, 2, "upload counted on its device");
        assert_eq!(devices[1].bytes_moved, 4128);
        // The ledger behind the device rows carries the same jobs' stats.
        assert_eq!(r.devices[0].stats.total_cycles, devices[0].sim_cycles);
    }

    #[test]
    fn cycle_free_rows_rank_by_sim_seconds() {
        let mut r = Rollups::new(3);
        r.record((None, None), 0, &ran(0, 0.1), 0.0, 1);
        r.record((None, None), 1, &ran(0, 0.9), 0.0, 1);
        let devices = r.rows(RollupBy::Device);
        assert_eq!(devices[0].key, "1");
        assert_eq!(devices.len(), 2, "an idle device has no row");
    }

    #[test]
    fn parse_axis() {
        assert_eq!(RollupBy::parse("kernel"), Ok(RollupBy::Kernel));
        assert_eq!(RollupBy::parse("session"), Ok(RollupBy::Session));
        assert_eq!(RollupBy::parse("device"), Ok(RollupBy::Device));
        assert!(RollupBy::parse("pool").is_err());
    }
}
