//! Placement policy of the async scheduler: pure decision logic, separated
//! from the threaded pool so it can be unit-tested deterministically.
//!
//! Policy, in priority order:
//! 1. **Forced colocation** — if an argument array has an in-flight job on
//!    some device, the new job must follow it there: per-device queues are
//!    FIFO and one outcome channel applies writebacks in submission order,
//!    so this orders conflicting jobs without blocking the host.
//! 2. **Least-loaded** — otherwise pick the shallowest queue, breaking ties
//!    round-robin so bursts spread across the pool.
//!
//! Nothing else is known about an array: it is in flight on one device or
//! current on the host. A job stages every argument that is not in flight
//! on its device from host memory, uncharged (the host program's own dma
//! ops charge its transfers), so no device holds a copy worth following.

/// Why a device was chosen (surfaced in pool metrics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementReason {
    /// An argument array has an in-flight job on this device.
    ForcedColocation,
    /// Nothing in flight: shallowest queue, round-robin on ties.
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

    /// Choose a device for a job, given per-device queue depths `loads` and
    /// the device its argument arrays are in flight on, if any.
    pub fn place(&mut self, loads: &[u64], in_flight: Option<usize>) -> Placement {
        if let Some(device) = in_flight {
            return Placement {
                device,
                reason: PlacementReason::ForcedColocation,
            };
        }
        let n = loads.len();
        let min_load = *loads.iter().min().expect("non-empty");
        let device = (0..n)
            .map(|i| (self.rr + i) % n)
            .find(|&d| loads[d] == min_load)
            .expect("some device has the min load");
        self.rr = (device + 1) % n;
        Placement {
            device,
            reason: PlacementReason::LeastLoaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_spreads_round_robin() {
        let mut p = PlacementPolicy::new();
        let mut loads = vec![0u64; 4];
        let mut picked = Vec::new();
        for _ in 0..8 {
            let d = p.place(&loads, None).device;
            loads[d] += 1;
            picked.push(d);
        }
        assert_eq!(picked, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn forced_colocation_wins_over_everything() {
        let mut p = PlacementPolicy::new();
        let pl = p.place(&[9, 0], Some(0));
        assert_eq!(pl.device, 0);
        assert_eq!(pl.reason, PlacementReason::ForcedColocation);
    }

    /// The whole ladder on two devices: every combination of an in-flight
    /// job and which device is loaded, checked against the two-rung order.
    #[test]
    fn two_rungs_in_order_over_in_flight_and_load() {
        use PlacementReason::*;
        let devs = [None, Some(0usize), Some(1)];
        for in_flight in devs {
            for loaded in devs {
                let mut loads = [0u64; 2];
                if let Some(d) = loaded {
                    loads[d] = 5;
                }
                let idle = loaded.map_or(0, |d| 1 - d);
                let expect = match in_flight {
                    Some(d) => (d, ForcedColocation),
                    None => (idle, LeastLoaded),
                };
                let pl = PlacementPolicy::new().place(&loads, in_flight);
                assert_eq!(
                    (pl.device, pl.reason),
                    expect,
                    "in_flight {in_flight:?} loaded {loaded:?}"
                );
            }
        }
    }
}
