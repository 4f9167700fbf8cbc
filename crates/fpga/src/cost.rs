//! Schedule→cost export: predicts a kernel invocation's cycle count from the
//! bitstream's loop schedules (II, pipeline depth, unroll factors) and a trip
//! count, without executing anything. The cluster weighs devices with
//! these predictions when it picks a session's shard count and split.
//!
//! The prediction is the executor's closed form ([`LoopInfo::cycles`]) with
//! trip counts derived from the element count: an unrolled loop runs
//! `elements / unroll` trips and its scalar epilogue mops up
//! `elements % unroll`. For single-level kernels (SAXPY, dot product) this
//! is exact; for nested kernels it is a same-order estimate, which is all
//! a shard split needs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::bitstream::Bitstream;
use crate::device_model::DeviceModel;
use crate::executor::KERNEL_CONTROL_CYCLES;
use crate::schedule::LoopInfo;

/// Cost predictor for one kernel, distilled from its loop schedules.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelCostModel {
    /// The kernel this model predicts.
    pub kernel: String,
    loops: Vec<LoopInfo>,
    /// Largest unroll factor among the kernel's loops (1 if none).
    main_unroll: u64,
}

impl KernelCostModel {
    /// Distill a predictor from the kernel's synthesized loop schedules.
    pub fn from_schedule(kernel: &str, schedule: &[LoopInfo]) -> Self {
        let main_unroll = schedule.iter().map(|l| l.unroll).max().unwrap_or(1).max(1);
        KernelCostModel {
            kernel: kernel.to_string(),
            loops: schedule.to_vec(),
            main_unroll,
        }
    }

    /// Predicted cycles for one invocation touching `elements` elements.
    pub fn estimate_cycles(&self, elements: u64) -> u64 {
        let mut cycles = KERNEL_CONTROL_CYCLES;
        for l in &self.loops {
            // Unrolled loops cover `elements` in `elements / unroll` trips;
            // their scalar epilogues (unroll == 1 alongside an unrolled main
            // loop) cover the remainder.
            let trips = if l.unroll > 1 {
                elements / l.unroll
            } else if self.main_unroll > 1 {
                elements % self.main_unroll
            } else {
                elements
            };
            cycles += l.cycles(trips);
        }
        cycles
    }

    /// Predicted simulated seconds of device-timeline occupancy for one
    /// launch (kernel wall time including the OpenCL launch overhead).
    pub fn estimate_seconds(&self, device: &DeviceModel, elements: u64) -> f64 {
        device.cycles_to_seconds(self.estimate_cycles(elements)) + device.launch_overhead_us * 1e-6
    }
}

/// Per-kernel cost models for every kernel in a bitstream.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    kernels: HashMap<String, KernelCostModel>,
}

impl CostModel {
    /// One [`KernelCostModel`] per kernel in the bitstream.
    pub fn from_bitstream(bitstream: &Bitstream) -> Self {
        CostModel {
            kernels: bitstream
                .kernels
                .iter()
                .map(|k| {
                    (
                        k.name.clone(),
                        KernelCostModel::from_schedule(&k.name, &k.schedule),
                    )
                })
                .collect(),
        }
    }

    /// The predictor for kernel `name`, if the bitstream carried one.
    pub fn kernel(&self, name: &str) -> Option<&KernelCostModel> {
        self.kernels.get(name)
    }

    /// Worst-case prediction over all kernels — what a device weight and a
    /// weighted makespan price a shard's launch at, since which kernels a
    /// session will launch is not known when it opens.
    pub fn estimate_any_seconds(&self, device: &DeviceModel, elements: u64) -> Option<f64> {
        self.kernels
            .values()
            .map(|k| k.estimate_seconds(device, elements))
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Relative throughput weight of one device for kernels over `elements`
    /// elements: the reciprocal of the worst-case predicted per-launch
    /// occupancy, so a card that finishes the same shard twice as fast
    /// carries twice the weight. With no predictable kernel the kernel
    /// clock is the best available proxy.
    pub fn device_weight(&self, device: &DeviceModel, elements: u64) -> f64 {
        match self.estimate_any_seconds(device, elements.max(1)) {
            Some(s) if s > 0.0 => 1.0 / s,
            _ => device.clock_mhz.max(1.0),
        }
    }

    /// Device indices ordered fastest-first by [`CostModel::device_weight`]
    /// (ties broken by the lower index, keeping homogeneous pools in their
    /// natural 0..N order).
    pub fn device_order(&self, devices: &[DeviceModel], elements: u64) -> Vec<usize> {
        let weights: Vec<f64> = devices
            .iter()
            .map(|d| self.device_weight(d, elements))
            .collect();
        let mut order: Vec<usize> = (0..devices.len()).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Predicted makespan of one launch over `elements` split
    /// throughput-proportionally across `devices` (each device's share is
    /// `elements · wᵢ / Σw`, rounded up): the slowest device's occupancy.
    pub fn estimate_weighted_seconds(&self, devices: &[DeviceModel], elements: u64) -> Option<f64> {
        if devices.is_empty() {
            return None;
        }
        let weights: Vec<f64> = devices
            .iter()
            .map(|d| self.device_weight(d, elements.div_ceil(devices.len() as u64)))
            .collect();
        let total: f64 = weights.iter().sum();
        devices
            .iter()
            .zip(&weights)
            .map(|(d, w)| {
                let share = (elements as f64 * w / total).ceil() as u64;
                self.estimate_any_seconds(d, share)
            })
            .try_fold(None, |acc: Option<f64>, s| {
                s.map(|s| Some(acc.map_or(s, |a| a.max(s))))
            })
            .flatten()
    }

    /// Shard-count pick for a (possibly heterogeneous) device pool: devices
    /// are ordered fastest-first and the chosen count is the largest prefix
    /// whose predicted weighted-split makespan still improves by ≥ 10% per
    /// added device — a small array stops early once the fixed launch
    /// overhead dominates, and a slow straggler card that would *extend*
    /// the makespan is simply left out. Halo traffic is priced in: each
    /// candidate count's per-launch makespan also carries the
    /// [`CostModel::halo_refresh_seconds`] of its slowest included device
    /// for `halo_block_bytes`, so an iterative stencil whose ghost blocks
    /// round-trip PCIe every sweep stops overcounting the win from extra
    /// shards (pass 0 for BLAS-shaped sessions). With no predictable kernel
    /// the pool size is returned (capped by `elements`).
    pub fn auto_shards(
        &self,
        devices: &[DeviceModel],
        elements: u64,
        halo_block_bytes: u64,
    ) -> usize {
        let cap = devices.len().max(1).min(elements.max(1) as usize);
        if self.kernels.is_empty() || devices.is_empty() {
            return cap;
        }
        let order = self.device_order(devices, elements.div_ceil(cap as u64));
        let ordered: Vec<DeviceModel> = order.iter().map(|&d| devices[d].clone()).collect();
        let Some(mut prev) = self.estimate_weighted_seconds(&ordered[..1], elements) else {
            return cap;
        };
        let mut best = 1usize;
        for n in 2..=cap {
            let halo = ordered[..n]
                .iter()
                .map(|d| self.halo_refresh_seconds(d, halo_block_bytes, n))
                .fold(0.0, f64::max);
            let est = self
                .estimate_weighted_seconds(&ordered[..n], elements)
                .expect("non-empty model")
                + halo;
            if est < prev * 0.9 {
                best = n;
                prev = est;
            } else {
                break;
            }
        }
        best
    }

    /// Simulated seconds one interior device spends on halo traffic per
    /// refreshed stencil iteration: two donor row fetches (device→host)
    /// plus two recipient splices (host→device) of `block_bytes` each —
    /// boundary blocks are host-bounced between devices. Zero with a
    /// single shard (no neighbours) or no halo bytes (BLAS-shaped
    /// workloads), so non-stencil picks are unaffected.
    pub fn halo_refresh_seconds(
        &self,
        device: &DeviceModel,
        block_bytes: u64,
        shards: usize,
    ) -> f64 {
        if shards <= 1 || block_bytes == 0 {
            return 0.0;
        }
        4.0 * device.transfer_seconds(block_bytes as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LoopInfo;

    fn loop_info(loop_index: usize, pipelined: bool, unroll: u64, ii: u64) -> LoopInfo {
        LoopInfo {
            loop_index,
            pipelined,
            unroll,
            ii,
            depth: 120,
            body_latency: 10,
            ports: vec![],
        }
    }

    #[test]
    fn matches_executor_closed_form_for_unrolled_plus_epilogue() {
        // SAXPY simd(10) shape: main loop II=320 unroll=10, epilogue II=96.
        let model = KernelCostModel::from_schedule(
            "saxpy",
            &[loop_info(0, true, 10, 320), loop_info(1, true, 1, 96)],
        );
        let n = 100_007u64;
        // Main: depth + (n/10 - 1)*320; epilogue: depth + (n%10 - 1)*96.
        let expect = KERNEL_CONTROL_CYCLES + 120 + (n / 10 - 1) * 320 + 120 + (7 - 1) * 96;
        assert_eq!(model.estimate_cycles(n), expect);
        // Zero-trip epilogue charges the 2-cycle guard.
        let expect_even = KERNEL_CONTROL_CYCLES + 120 + (1000 - 1) * 320 + 2;
        assert_eq!(model.estimate_cycles(10_000), expect_even);
    }

    /// Golden counts on equal devices, recorded from the single-model
    /// picker this one replaced (largest shard = `ceil(elements / n)`): a
    /// tiny array is overhead-dominated and stays on one device, anything
    /// that amortizes the launch overhead fills the pool.
    #[test]
    fn auto_shards_scales_with_array_size_on_homogeneous_pools() {
        let model = single_kernel_model();
        let device = DeviceModel::u280();
        let golden: [(u64, [usize; 4]); 4] = [
            (2, [1, 1, 1, 1]),
            (1_000, [1, 2, 4, 8]),
            (65_536, [1, 2, 4, 8]),
            (1_000_000, [1, 2, 4, 8]),
        ];
        for (elements, picks) in golden {
            for (n, pick) in [1usize, 2, 4, 8].into_iter().zip(picks) {
                let pool = vec![device.clone(); n];
                assert_eq!(
                    model.auto_shards(&pool, elements, 0),
                    pick,
                    "elements {elements} pool {n}"
                );
            }
        }
        // Never more shards than elements (or devices).
        assert!(model.auto_shards(&vec![device.clone(); 8], 3, 0) <= 3);
        // An empty model falls back to the pool size capped by elements.
        let empty = CostModel::default();
        assert_eq!(empty.auto_shards(&vec![device.clone(); 4], 100, 0), 4);
        assert_eq!(empty.auto_shards(&vec![device; 4], 2, 0), 2);
    }

    #[test]
    fn auto_shards_backs_off_when_halo_dominates() {
        let model = single_kernel_model();
        let device = DeviceModel::u280();
        let pool = vec![device.clone(); 4];
        // A mid-sized array splits across the whole pool when ghost
        // exchange is free...
        let elements = 100_000u64;
        assert_eq!(model.auto_shards(&pool, elements, 0), 4);
        // ...but a huge per-iteration ghost block (4 PCIe hops each
        // refresh) eats the marginal win, so the pick is fewer shards.
        let huge_halo = 256 * 1024 * 1024;
        assert!(model.auto_shards(&pool, elements, huge_halo) < 4);
        // No shards or no bytes: halo traffic prices to zero.
        assert_eq!(model.halo_refresh_seconds(&device, 4096, 1), 0.0);
        assert_eq!(model.halo_refresh_seconds(&device, 0, 4), 0.0);
        // Two fetches + two splices of one boundary block.
        let secs = model.halo_refresh_seconds(&device, 4096, 4);
        assert!((secs - 4.0 * device.transfer_seconds(4096)).abs() < 1e-15);
    }

    fn single_kernel_model() -> CostModel {
        let mut kernels = HashMap::new();
        kernels.insert(
            "k".to_string(),
            KernelCostModel::from_schedule("k", &[loop_info(0, true, 1, 96)]),
        );
        CostModel { kernels }
    }

    #[test]
    fn device_weight_tracks_clock_and_orders_fastest_first() {
        let model = single_kernel_model();
        let fast = DeviceModel::u280();
        let mut slow = DeviceModel::u280();
        slow.clock_mhz = 150.0;
        let wf = model.device_weight(&fast, 100_000);
        let ws = model.device_weight(&slow, 100_000);
        // Kernel-dominated occupancy: halving the clock halves the weight.
        assert!((wf / ws - 2.0).abs() < 0.05, "ratio {}", wf / ws);

        // Fastest-first ordering, ties by index.
        let pool = vec![
            slow.clone(),
            fast.clone(),
            DeviceModel::u55c(),
            fast.clone(),
        ];
        assert_eq!(model.device_order(&pool, 100_000), vec![2, 1, 3, 0]);
        // Empty model falls back to the clock.
        let empty = CostModel::default();
        assert_eq!(empty.device_order(&pool, 100_000), vec![2, 1, 3, 0]);
    }

    #[test]
    fn weighted_makespan_beats_uniform_on_a_mixed_pool() {
        let model = single_kernel_model();
        let fast = DeviceModel::u280();
        let mut slow = DeviceModel::u280();
        slow.clock_mhz = 150.0;
        let elements = 1_000_000u64;
        let pool = [fast.clone(), fast.clone(), fast.clone(), slow.clone()];
        let weighted = model.estimate_weighted_seconds(&pool, elements).unwrap();
        // Uniform split: the slow card's quarter is the critical path.
        let uniform = model
            .estimate_any_seconds(&slow, elements.div_ceil(4))
            .unwrap();
        assert!(
            weighted < uniform * 0.8,
            "weighted {weighted} vs uniform {uniform}"
        );
    }

    #[test]
    fn auto_shards_leaves_out_a_straggler_that_extends_the_makespan() {
        let model = single_kernel_model();
        let fast = DeviceModel::u280();
        let mut crawl = DeviceModel::u280();
        // A card 100x slower than the rest: even its throughput-weighted
        // share barely moves the makespan, so auto stops before it.
        crawl.clock_mhz = 3.0;
        let pool = vec![fast.clone(), fast.clone(), fast, crawl];
        let picked = model.auto_shards(&pool, 1_000_000, 0);
        assert!(
            (1..=3).contains(&picked),
            "straggler must not be auto-included, picked {picked}"
        );
        assert!(picked >= 2, "the fast cards still pay off, picked {picked}");
    }

    #[test]
    fn scalar_kernel_and_seconds() {
        let model = KernelCostModel::from_schedule("s", &[loop_info(0, true, 1, 96)]);
        assert_eq!(
            model.estimate_cycles(1000),
            KERNEL_CONTROL_CYCLES + 120 + 999 * 96
        );
        let device = DeviceModel::u280();
        let secs = model.estimate_seconds(&device, 1000);
        let kernel = device.cycles_to_seconds(model.estimate_cycles(1000));
        assert!((secs - kernel - device.launch_overhead_us * 1e-6).abs() < 1e-15);
    }
}
