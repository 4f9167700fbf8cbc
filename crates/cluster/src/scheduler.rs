//! Placement policy of the async scheduler: pure decision logic, separated
//! from the threaded pool so it can be unit-tested deterministically.
//!
//! Policy, in priority order:
//! 1. **Forced colocation** — if an argument buffer has an in-flight job on
//!    some device, the new job must follow it there: per-device queues are
//!    FIFO, so this serializes conflicting jobs without blocking the host.
//! 2. **Data affinity** — prefer the device already holding the largest
//!    share of the job's buffers at their current version (PCIe staging
//!    avoided).
//! 3. **Transfer-cost-aware stealing** — when the affinity device has a
//!    deeper backlog than the least-loaded device, move the job iff the
//!    backlog gap on the simulated timeline exceeds the PCIe cost of
//!    re-staging the missing bytes. Backlogs are priced by the per-kernel
//!    cost model ([`ftn_fpga::CostModel`], derived from bitstream schedules:
//!    II, pipeline depth, trip counts) — not by the mean observed job time,
//!    which mis-prices mixed light/heavy queues.
//! 4. **Least-loaded** — otherwise pick the shallowest queue, breaking ties
//!    round-robin so bursts spread across the pool.
//!
//! There is no rung for "the only current copy is device-resident": the
//! buffers left in that state (deferred-writeback session sub-buffers) are
//! reached only by the session's own force-placed jobs, which bypass this
//! policy, and a sessionless job over a mapped array is refused before
//! placement.

use ftn_fpga::DeviceModel;

/// What the scheduler knows about one argument buffer at placement time.
#[derive(Clone, Debug)]
pub struct BufferInfo {
    /// Buffer size (prices the staging transfer).
    pub bytes: usize,
    /// Devices holding this buffer at its current version.
    pub resident: Vec<usize>,
    /// Device with an in-flight (submitted, not yet completed) job writing
    /// this buffer, if any.
    pub in_flight: Option<usize>,
}

/// Why a device was chosen (surfaced in pool metrics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementReason {
    /// An argument buffer has an in-flight job on this device.
    ForcedColocation,
    /// This device already holds the largest share of the job's bytes.
    Affinity,
    /// Moved off the affinity device: its backlog outweighed the restage.
    Steal,
    /// No residency signal: shallowest queue, round-robin on ties.
    LeastLoaded,
}

/// A placement decision.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// The chosen device.
    pub device: usize,
    /// Which rung of the policy ladder decided it.
    pub reason: PlacementReason,
}

/// Deterministic placement state: a round-robin cursor for load ties and a
/// running mean of simulated job time, kept as the fallback price for jobs
/// the per-kernel cost model cannot predict.
#[derive(Debug)]
pub struct PlacementPolicy {
    rr: usize,
    mean_job_sim_seconds: f64,
    jobs_observed: u64,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy::new()
    }
}

impl PlacementPolicy {
    /// A fresh policy (round-robin cursor at device 0, no history).
    pub fn new() -> Self {
        PlacementPolicy {
            rr: 0,
            mean_job_sim_seconds: 0.0,
            jobs_observed: 0,
        }
    }

    /// Record a completed job's simulated device time (kernel wall +
    /// transfers). Used only as the backlog price for jobs without a
    /// schedule-derived estimate.
    pub fn observe_job(&mut self, sim_seconds: f64) {
        self.jobs_observed += 1;
        let n = self.jobs_observed as f64;
        self.mean_job_sim_seconds += (sim_seconds - self.mean_job_sim_seconds) / n;
    }

    /// The observed mean simulated job time (the fallback backlog price).
    pub fn mean_job_sim_seconds(&self) -> f64 {
        self.mean_job_sim_seconds
    }

    /// Choose a device for a job over buffers `bufs`, given per-device queue
    /// depths `loads` and per-device outstanding simulated work
    /// `backlog_sim_seconds` (sum of schedule-derived cost estimates of the
    /// queued jobs). `models[d]` supplies the PCIe cost model for staging
    /// onto device `d`.
    pub fn place(
        &mut self,
        loads: &[u64],
        backlog_sim_seconds: &[f64],
        models: &[DeviceModel],
        bufs: &[BufferInfo],
    ) -> Placement {
        assert!(!loads.is_empty() && loads.len() == models.len());
        assert_eq!(loads.len(), backlog_sim_seconds.len());
        let n = loads.len();

        // 1. Forced colocation with an in-flight writer.
        if let Some(d) = bufs.iter().find_map(|b| b.in_flight) {
            return Placement {
                device: d,
                reason: PlacementReason::ForcedColocation,
            };
        }

        // Least-loaded with round-robin tie-break (candidate for 3/4).
        let min_load = *loads.iter().min().expect("non-empty");
        let least = (0..n)
            .map(|i| (self.rr + i) % n)
            .find(|&d| loads[d] == min_load)
            .expect("some device has the min load");

        // 2. Affinity: most resident bytes at current version.
        let mut aff_bytes = vec![0usize; n];
        for b in bufs {
            for &d in &b.resident {
                if d < n {
                    aff_bytes[d] += b.bytes;
                }
            }
        }
        let best_aff = (0..n).max_by_key(|&d| aff_bytes[d]).expect("non-empty");
        if aff_bytes[best_aff] == 0 {
            self.rr = (least + 1) % n;
            return Placement {
                device: least,
                reason: PlacementReason::LeastLoaded,
            };
        }
        if loads[best_aff] <= loads[least] {
            return Placement {
                device: best_aff,
                reason: PlacementReason::Affinity,
            };
        }

        // 3. Affinity device is backlogged: steal iff waiting out the
        // backlog (priced by the per-kernel cost estimates) costs more than
        // re-staging the missing bytes.
        let missing_on_least: usize = bufs
            .iter()
            .filter(|b| !b.resident.contains(&least))
            .map(|b| b.bytes)
            .sum();
        let transfer_cost = models[least].transfer_seconds(missing_on_least);
        let backlog_gap = backlog_sim_seconds[best_aff] - backlog_sim_seconds[least];
        if backlog_gap > transfer_cost {
            self.rr = (least + 1) % n;
            Placement {
                device: least,
                reason: PlacementReason::Steal,
            }
        } else {
            Placement {
                device: best_aff,
                reason: PlacementReason::Affinity,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(n: usize) -> Vec<DeviceModel> {
        (0..n).map(|_| DeviceModel::u280()).collect()
    }

    fn buf(bytes: usize, resident: &[usize]) -> BufferInfo {
        BufferInfo {
            bytes,
            resident: resident.to_vec(),
            in_flight: None,
        }
    }

    #[test]
    fn least_loaded_spreads_round_robin() {
        let mut p = PlacementPolicy::new();
        let mut loads = vec![0u64; 4];
        let backlog = vec![0.0f64; 4];
        let m = models(4);
        let mut picked = Vec::new();
        for _ in 0..8 {
            let d = p.place(&loads, &backlog, &m, &[buf(4096, &[])]).device;
            loads[d] += 1;
            picked.push(d);
        }
        assert_eq!(picked, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn affinity_beats_least_loaded_on_tie() {
        let mut p = PlacementPolicy::new();
        // Round-robin cursor would point at device 1 after one placement...
        let m = models(4);
        let mut loads = vec![0u64; 4];
        let backlog = vec![0.0f64; 4];
        let d0 = p.place(&loads, &backlog, &m, &[buf(4096, &[])]).device;
        assert_eq!(d0, 0);
        loads[d0] += 1;
        loads[d0] -= 1; // job completed
                        // ...but a buffer resident on device 0 pulls the job back there.
        let pl = p.place(&loads, &backlog, &m, &[buf(4096, &[0])]);
        assert_eq!(pl.device, 0);
        assert_eq!(pl.reason, PlacementReason::Affinity);
    }

    #[test]
    fn forced_colocation_wins_over_everything() {
        let mut p = PlacementPolicy::new();
        let m = models(2);
        let loads = vec![9u64, 0];
        let backlog = vec![9.0f64, 0.0];
        let b = BufferInfo {
            bytes: 10,
            resident: vec![1],
            in_flight: Some(0),
        };
        let pl = p.place(&loads, &backlog, &m, &[b]);
        assert_eq!(pl.device, 0);
        assert_eq!(pl.reason, PlacementReason::ForcedColocation);
    }

    /// The whole ladder on two devices: every combination of an in-flight
    /// writer, a resident copy and which device is loaded, checked against
    /// the four-rung order. A 1 KiB buffer against 50 ms of backlog always
    /// favours stealing once affinity points at the loaded device.
    #[test]
    fn four_rungs_in_order_over_in_flight_resident_and_load() {
        use PlacementReason::*;
        let m = models(2);
        let devs = [None, Some(0usize), Some(1)];
        for in_flight in devs {
            for resident in devs {
                for loaded in devs {
                    let (mut loads, mut backlog) = ([0u64; 2], [0.0f64; 2]);
                    if let Some(d) = loaded {
                        (loads[d], backlog[d]) = (5, 0.050);
                    }
                    let idle = loaded.map_or(0, |d| 1 - d);
                    let b = BufferInfo {
                        bytes: 1024,
                        resident: resident.into_iter().collect(),
                        in_flight,
                    };
                    let expect = match (in_flight, resident) {
                        (Some(d), _) => (d, ForcedColocation),
                        (None, Some(r)) if loaded == Some(r) => (idle, Steal),
                        (None, Some(r)) => (r, Affinity),
                        (None, None) => (idle, LeastLoaded),
                    };
                    let pl = PlacementPolicy::new().place(&loads, &backlog, &m, &[b]);
                    assert_eq!(
                        (pl.device, pl.reason),
                        expect,
                        "in_flight {in_flight:?} resident {resident:?} loaded {loaded:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn steals_only_when_backlog_exceeds_transfer_cost() {
        let m = models(2);
        // Tiny buffer, 50 ms of queued work on the affinity device: steal.
        let mut p = PlacementPolicy::new();
        let pl = p.place(&[5, 0], &[0.050, 0.0], &m, &[buf(1024, &[0])]);
        assert_eq!(pl.reason, PlacementReason::Steal);
        assert_eq!(pl.device, 1);

        // Huge buffer, 30 µs of queued work: staying with the data is
        // cheaper than the ~30 ms PCIe restage.
        let mut p = PlacementPolicy::new();
        let huge = buf(512 * 1024 * 1024, &[0]);
        let pl = p.place(&[1, 0], &[30e-6, 0.0], &m, &[huge]);
        assert_eq!(pl.reason, PlacementReason::Affinity);
        assert_eq!(pl.device, 0);
    }

    #[test]
    fn steal_pricing_uses_the_target_devices_own_link_model() {
        // Heterogeneous pool: the steal target's PCIe model prices the
        // restage. A Gen4 card (u55c, 24 GB/s) accepts a steal that a card
        // with a crippled link refuses at the same backlog gap.
        let buf256m = buf(256 * 1024 * 1024, &[0]);
        let gap = 0.015f64; // 15 ms of queued work on the affinity device

        let fast_link = vec![DeviceModel::u280(), DeviceModel::u55c()];
        let mut p = PlacementPolicy::new();
        let pl = p.place(
            &[1, 0],
            &[gap, 0.0],
            &fast_link,
            std::slice::from_ref(&buf256m),
        );
        assert_eq!(pl.reason, PlacementReason::Steal);
        assert_eq!(pl.device, 1);

        let mut slow = DeviceModel::u280();
        slow.pcie_gbps = 1.0; // ~256 ms to restage 256 MiB
        let slow_link = vec![DeviceModel::u280(), slow];
        let mut p = PlacementPolicy::new();
        let pl = p.place(&[1, 0], &[gap, 0.0], &slow_link, &[buf256m]);
        assert_eq!(pl.reason, PlacementReason::Affinity);
        assert_eq!(pl.device, 0);
    }

    #[test]
    fn cost_priced_backlog_beats_job_counting() {
        // One queued job, but the cost model knows it is a heavy kernel
        // (200 ms): the gap dwarfs a 4 KiB restage even though the queue is
        // only one deep — a mean-of-history policy with light history would
        // have stayed.
        let m = models(2);
        let mut p = PlacementPolicy::new();
        p.observe_job(30e-6); // history says jobs are tiny
        let pl = p.place(&[1, 0], &[0.200, 0.0], &m, &[buf(4096, &[0])]);
        assert_eq!(pl.reason, PlacementReason::Steal);
        assert_eq!(pl.device, 1);
    }
}
