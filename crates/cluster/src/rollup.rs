//! Attribution rollups: per-kernel, per-session and per-device cost
//! counters folded in where jobs complete ([`crate::ClusterMachine`]'s
//! outcome path), behind `GET /profile/top` in the serve stack.
//!
//! Spans answer *where did this request's time go*; rollups answer the dual
//! fleet-level question — *which kernel / session / device is burning the
//! pool* — without scanning span rings. Each completed job adds one
//! observation to up to three rows: its kernel (kernel jobs only), its
//! submitting session (when launched through one), and its device (always).
//! Costs tracked per row: completed jobs, simulated device cycles, simulated
//! wall seconds, wall-clock queue wait, and bytes moved host↔device
//! (staged uploads plus writebacks).

use std::collections::BTreeMap;

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
    pub wall_seconds: f64,
    /// Wall-clock enqueue→dispatch wait in seconds.
    pub queue_wait_seconds: f64,
    /// Bytes moved host↔device (staged uploads + writebacks).
    pub bytes_moved: u64,
}

impl RollupRow {
    fn add(
        &mut self,
        sim_cycles: u64,
        wall_seconds: f64,
        queue_wait_seconds: f64,
        bytes_moved: u64,
    ) {
        self.jobs += 1;
        self.sim_cycles += sim_cycles;
        self.wall_seconds += wall_seconds;
        self.queue_wait_seconds += queue_wait_seconds;
        self.bytes_moved += bytes_moved;
    }
}

/// The machine's rollup tables (one per axis).
#[derive(Debug, Default)]
pub(crate) struct Rollups {
    by_kernel: BTreeMap<String, RollupRow>,
    by_session: BTreeMap<u64, RollupRow>,
    by_device: BTreeMap<usize, RollupRow>,
}

impl Rollups {
    /// Fold one completed job into the tables.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        kernel: Option<&str>,
        session: Option<u64>,
        device: usize,
        sim_cycles: u64,
        wall_seconds: f64,
        queue_wait_seconds: f64,
        bytes_moved: u64,
    ) {
        if let Some(kernel) = kernel {
            self.by_kernel
                .entry(kernel.to_string())
                .or_insert_with(|| RollupRow {
                    key: kernel.to_string(),
                    ..RollupRow::default()
                })
                .add(sim_cycles, wall_seconds, queue_wait_seconds, bytes_moved);
        }
        if let Some(session) = session {
            self.by_session
                .entry(session)
                .or_insert_with(|| RollupRow {
                    key: session.to_string(),
                    ..RollupRow::default()
                })
                .add(sim_cycles, wall_seconds, queue_wait_seconds, bytes_moved);
        }
        self.by_device
            .entry(device)
            .or_insert_with(|| RollupRow {
                key: device.to_string(),
                ..RollupRow::default()
            })
            .add(sim_cycles, wall_seconds, queue_wait_seconds, bytes_moved);
    }

    /// The rows of one axis, costliest first (by simulated cycles, then by
    /// wall seconds for cycle-free rows like uploads).
    pub(crate) fn rows(&self, by: RollupBy) -> Vec<RollupRow> {
        let mut rows: Vec<RollupRow> = match by {
            RollupBy::Kernel => self.by_kernel.values().cloned().collect(),
            RollupBy::Session => self.by_session.values().cloned().collect(),
            RollupBy::Device => self.by_device.values().cloned().collect(),
        };
        rows.sort_by(|a, b| {
            b.sim_cycles
                .cmp(&a.sim_cycles)
                .then(b.wall_seconds.total_cmp(&a.wall_seconds))
                .then(a.key.cmp(&b.key))
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_rank_by_cycles_and_attribute_per_axis() {
        let mut r = Rollups::default();
        r.record(Some("saxpy_kernel0"), Some(1), 0, 100, 0.5, 0.01, 64);
        r.record(Some("saxpy_kernel0"), Some(1), 1, 150, 0.6, 0.02, 32);
        r.record(Some("sdot_kernel0"), Some(2), 0, 900, 1.0, 0.03, 16);
        // An upload: no kernel, no session attribution, device row only.
        r.record(None, None, 1, 0, 0.1, 0.0, 4096);

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
    }

    #[test]
    fn cycle_free_rows_rank_by_wall_seconds() {
        let mut r = Rollups::default();
        r.record(None, None, 0, 0, 0.1, 0.0, 1);
        r.record(None, None, 1, 0, 0.9, 0.0, 1);
        let devices = r.rows(RollupBy::Device);
        assert_eq!(devices[0].key, "1");
    }

    #[test]
    fn parse_axis() {
        assert_eq!(RollupBy::parse("kernel"), Ok(RollupBy::Kernel));
        assert_eq!(RollupBy::parse("session"), Ok(RollupBy::Session));
        assert_eq!(RollupBy::parse("device"), Ok(RollupBy::Device));
        assert!(RollupBy::parse("pool").is_err());
    }
}
