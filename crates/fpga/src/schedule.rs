//! The HLS scheduler: computes each pipelined loop's Initiation Interval and
//! depth from AXI memory-port analysis.
//!
//! Cost rules (calibrated against Tables 1–2, DESIGN.md §5):
//! * every access on an `m_axi` port costs [`DeviceModel::stream_access_cycles`]
//!   (round-trip latency amortized over the outstanding-transaction window),
//! * a port that is both read and written in a *non-unrolled* loop carries a
//!   conservatively-serialized RAW hazard: at least one full round trip per
//!   iteration (this is what makes non-`simd` SGESL ≈ 96 cycles/element while
//!   `simd(10)` SAXPY sustains ≈ 32),
//! * loop-carried floating-point reductions bound II by the `fadd` latency,
//!   divided by the unroll factor (the paper's round-robin copy scheme),
//! * II is the max over ports / dependences, never below 1.

use std::collections::HashMap;

use ftn_dialects::{func, hls, scf};
use ftn_mlir::{Ir, OpId, TypeKind, ValueId};
use serde::{Deserialize, Serialize};

use crate::device_model::DeviceModel;

/// Floating-point add latency in cycles (Vitis f32 fadd ≈ 7 @300 MHz).
pub const FADD_LATENCY: u64 = 7;
/// Floating-point multiply latency in cycles.
pub const FMUL_LATENCY: u64 = 4;
/// Floating-point divide latency in cycles.
pub const FDIV_LATENCY: u64 = 30;

/// Per-port cost summary for one loop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PortCost {
    /// The `m_axi` bundle the accesses go through.
    pub bundle: String,
    /// Reads per iteration on this port.
    pub reads: u32,
    /// Writes per iteration on this port.
    pub writes: u32,
    /// Whether a read-modify-write hazard serializes the port (a full
    /// round trip per iteration).
    pub serialized_rmw: bool,
    /// Cycles this port contributes to the loop's II.
    pub cycles: u64,
}

/// Schedule for one loop in a kernel (identified by pre-order index among the
/// kernel's `scf.for` ops, which is stable across print/parse round trips).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoopInfo {
    /// Pre-order index of the loop among the kernel's `scf.for` ops.
    pub loop_index: usize,
    /// Whether the loop is pipelined (`hls.pipeline` marker).
    pub pipelined: bool,
    /// Unroll factor (`simd(n)` → n; 1 when not unrolled).
    pub unroll: u64,
    /// Initiation interval (cycles per loop iteration).
    pub ii: u64,
    /// Pipeline fill depth (cycles per loop instance).
    pub depth: u64,
    /// Per-iteration latency used when not pipelined.
    pub body_latency: u64,
    /// Per-port cost breakdown feeding the II.
    pub ports: Vec<PortCost>,
}

impl LoopInfo {
    /// Cycles one instance of the loop takes over `trips` iterations — the
    /// one closed form the executor charges and the cost model predicts:
    /// `depth + (trips − 1)·II` pipelined, `trips·body_latency + 2`
    /// otherwise, and 2 for a loop that runs no iteration.
    pub fn cycles(&self, trips: u64) -> u64 {
        match trips {
            0 => 2,
            t if self.pipelined => self.depth + (t - 1) * self.ii,
            t => t * self.body_latency + 2,
        }
    }
}

/// Schedule every `scf.for` in `kernel` (a `func.func`).
pub fn schedule_kernel(ir: &Ir, kernel: OpId, device: &DeviceModel) -> Vec<LoopInfo> {
    let bundles = interface_bundles(ir, kernel);
    let loops = kernel_loops(ir, kernel);
    let mut out = Vec::with_capacity(loops.len());
    for (loop_index, &l) in loops.iter().enumerate() {
        out.push(schedule_loop(ir, l, loop_index, device, &bundles));
    }
    out
}

/// Pre-order `scf.for` ops within a kernel.
pub fn kernel_loops(ir: &Ir, kernel: OpId) -> Vec<OpId> {
    ftn_mlir::walk_preorder(ir, kernel)
        .into_iter()
        .filter(|&o| ir.op_is(o, scf::FOR))
        .collect()
}

/// Map from kernel argument value → interface bundle name.
pub fn interface_bundles(ir: &Ir, kernel: OpId) -> HashMap<ValueId, String> {
    let mut map = HashMap::new();
    for op in ftn_mlir::find_all(ir, kernel, hls::INTERFACE) {
        let arg = hls::interface_arg(ir, op);
        map.insert(arg, hls::interface_bundle(ir, op).to_string());
    }
    map
}

fn schedule_loop(
    ir: &Ir,
    l: OpId,
    loop_index: usize,
    device: &DeviceModel,
    bundles: &HashMap<ValueId, String>,
) -> LoopInfo {
    let body = scf::for_body(ir, l);
    // Markers are the leading ops of the body.
    let mut pipelined = false;
    let mut unroll = 1u64;
    for &op in &ir.block(body).ops {
        if ir.op_is(op, hls::PIPELINE) {
            pipelined = true;
        } else if ir.op_is(op, hls::UNROLL) {
            if let Some(f) = ftn_dialects::arith::const_int_value(ir, ir.op(op).operands[0]) {
                unroll = f.max(1) as u64;
            }
        }
    }

    // Collect memory accesses in the body (nested regions included, but not
    // nested scf.for loops — those are scheduled separately).
    let mut port_accesses: HashMap<String, (u32, u32)> = HashMap::new();
    let mut body_compute_latency = 0u64;
    collect_accesses(
        ir,
        body,
        bundles,
        &mut port_accesses,
        &mut body_compute_latency,
    );

    let stream = device.stream_access_cycles();
    let mut ports: Vec<PortCost> = port_accesses
        .into_iter()
        .map(|(bundle, (reads, writes))| {
            let onchip = bundle == "local";
            let serialized_rmw = !onchip && reads > 0 && writes > 0 && unroll <= 1;
            let access_cost = if onchip { 1 } else { stream };
            let pipelined_cost = (reads + writes) as u64 * access_cost;
            let cycles = if serialized_rmw {
                pipelined_cost.max(device.hbm_round_trip_cycles)
            } else {
                pipelined_cost
            };
            PortCost {
                bundle,
                reads,
                writes,
                serialized_rmw,
                cycles,
            }
        })
        .collect();
    ports.sort_by(|a, b| a.bundle.cmp(&b.bundle));

    let ii_mem = ports.iter().map(|p| p.cycles).max().unwrap_or(0);
    // Loop-carried dependence: iter args with float types bound by fadd
    // latency, relaxed by the round-robin copies (one per unroll replica).
    let n_iter = ir.op(l).operands.len().saturating_sub(3);
    let ii_dep = if n_iter > 0 {
        let any_float = ir.op(l).operands[3..].iter().any(|&v| {
            matches!(
                ir.type_kind(ir.value_ty(v)),
                TypeKind::Float32 | TypeKind::Float64
            )
        });
        if any_float {
            FADD_LATENCY.div_ceil(unroll)
        } else {
            1
        }
    } else {
        0
    };
    let ii = ii_mem.max(ii_dep).max(1);

    // Non-pipelined per-iteration latency: serialized memory + compute.
    let serial_mem: u64 = ports
        .iter()
        .map(|p| {
            if p.bundle == "local" {
                (p.reads + p.writes) as u64
            } else {
                (p.reads + p.writes) as u64 * device.hbm_round_trip_cycles
            }
        })
        .sum();
    let body_latency = serial_mem + body_compute_latency;

    LoopInfo {
        loop_index,
        pipelined,
        unroll,
        ii,
        depth: device.pipeline_depth,
        body_latency: body_latency.max(1),
        ports,
    }
}

/// Recursively tally loads/stores (by port) and compute latency under `block`,
/// stopping at nested `scf.for` boundaries.
fn collect_accesses(
    ir: &Ir,
    block: ftn_mlir::BlockId,
    bundles: &HashMap<ValueId, String>,
    ports: &mut HashMap<String, (u32, u32)>,
    compute: &mut u64,
) {
    for &op in &ir.block(block).ops {
        let name = ir.op_name(op);
        match name {
            "memref.load" => {
                let base = ir.op(op).operands[0];
                let bundle = bundles
                    .get(&base)
                    .cloned()
                    .unwrap_or_else(|| "local".into());
                ports.entry(bundle).or_default().0 += 1;
            }
            "memref.store" => {
                let base = ir.op(op).operands[1];
                let bundle = bundles
                    .get(&base)
                    .cloned()
                    .unwrap_or_else(|| "local".into());
                ports.entry(bundle).or_default().1 += 1;
            }
            "arith.addf" | "arith.subf" => *compute += FADD_LATENCY,
            "arith.mulf" => *compute += FMUL_LATENCY,
            "arith.divf" => *compute += FDIV_LATENCY,
            n if n.starts_with("arith.") => *compute += 1,
            scf::FOR => continue, // nested loops scheduled separately
            _ => {}
        }
        if !ir.op_is(op, scf::FOR) {
            for &r in &ir.op(op).regions {
                for &b in &ir.region(r).blocks {
                    collect_accesses(ir, b, bundles, ports, compute);
                }
            }
        }
    }
}

/// Convenience: look up the schedule entry for a given kernel/loop op.
pub fn loop_index_map(ir: &Ir, kernel: OpId) -> HashMap<OpId, usize> {
    kernel_loops(ir, kernel)
        .into_iter()
        .enumerate()
        .map(|(i, o)| (o, i))
        .collect()
}

/// Total kernel resources usable by `func::name`.
pub fn kernel_name(ir: &Ir, kernel: OpId) -> String {
    func::name(ir, kernel).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{arith, builtin, memref, omp, registry};
    use ftn_mlir::{verify, Builder};
    use ftn_passes::lower_omp_to_hls;

    /// Build an FPGA kernel from an omp.wsloop and run the real HLS lowering,
    /// so schedules are computed on exactly the IR the pipeline produces.
    fn saxpy_like_kernel(ir: &mut Ir, simdlen: Option<i64>) -> (OpId, OpId) {
        let (module, mbody) = builtin::module_with_target(ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        let mut b = Builder::at_end(ir, mbody);
        let (f, entry) = func::build_func(&mut b, "saxpy_kernel", &[mty, mty, f32t, index], &[]);
        let args = b.ir.block(entry).args.clone();
        b.set_insertion_point_to_end(entry);
        let one = arith::const_index(&mut b, 1);
        let cfg = omp::WsLoopConfig {
            parallel: true,
            simd: simdlen.is_some(),
            simdlen,
            reduction: None,
        };
        omp::build_wsloop(&mut b, one, args[3], one, &cfg, None, |ib, iv, _| {
            let one_i = arith::const_index(ib, 1);
            let idx = arith::subi(ib, iv, one_i);
            let xv = memref::load(ib, args[0], &[idx]);
            let ax = arith::binop_contract(ib, arith::MULF, args[2], xv);
            let yv = memref::load(ib, args[1], &[idx]);
            let s = arith::binop_contract(ib, arith::ADDF, yv, ax);
            memref::store(ib, s, args[1], &[idx]);
            vec![]
        });
        func::build_return(&mut b, &[]);
        lower_omp_to_hls::run(ir, module).unwrap();
        verify(ir, module, &registry()).unwrap();
        (module, f)
    }

    #[test]
    fn non_unrolled_rmw_port_serializes_to_round_trip() {
        let mut ir = Ir::new();
        let device = DeviceModel::u280();
        let (_m, f) = saxpy_like_kernel(&mut ir, None);
        let scheds = schedule_kernel(&ir, f, &device);
        assert_eq!(scheds.len(), 1);
        let s = &scheds[0];
        assert!(s.pipelined);
        assert_eq!(s.unroll, 1);
        // y-port (gmem1) is read+written: serialized to the 96-cycle RTT.
        let y = s.ports.iter().find(|p| p.bundle == "gmem1").unwrap();
        assert!(y.serialized_rmw);
        assert_eq!(y.cycles, 96);
        assert_eq!(s.ii, 96);
    }

    #[test]
    fn unrolled_loop_streams_and_amortizes() {
        let mut ir = Ir::new();
        let device = DeviceModel::u280();
        let (_m, f) = saxpy_like_kernel(&mut ir, Some(10));
        let scheds = schedule_kernel(&ir, f, &device);
        // Main unrolled loop + epilogue loop.
        assert_eq!(scheds.len(), 2);
        let main = &scheds[0];
        assert_eq!(main.unroll, 10);
        assert!(main.pipelined);
        // y port: 10 reads + 10 writes, streaming: 20 * 16 = 320/iteration,
        // i.e. 32 cycles per element — the Table 1 calibration point.
        let y = main.ports.iter().find(|p| p.bundle == "gmem1").unwrap();
        assert!(!y.serialized_rmw);
        assert_eq!(y.cycles, 320);
        assert_eq!(main.ii, 320);
        assert_eq!(main.ii / main.unroll, 32);
        // Epilogue is scalar and serialized again.
        assert_eq!(scheds[1].unroll, 1);
        assert_eq!(scheds[1].ii, 96);
    }

    #[test]
    fn reduction_dependence_bounds_ii() {
        let mut ir = Ir::new();
        let device = DeviceModel::u280();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        let f = {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (f, entry) = func::build_func(&mut b, "dot", &[mty, index], &[f32t]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let one = arith::const_index(&mut b, 1);
            let init = arith::const_f32(&mut b, 0.0);
            let cfg = omp::WsLoopConfig {
                parallel: true,
                simd: false,
                simdlen: None,
                reduction: Some(omp::ReductionKind::Add),
            };
            let ws = omp::build_wsloop(
                &mut b,
                one,
                args[1],
                one,
                &cfg,
                Some(init),
                |ib, iv, acc| {
                    let one_i = arith::const_index(ib, 1);
                    let idx = arith::subi(ib, iv, one_i);
                    let v = memref::load(ib, args[0], &[idx]);
                    vec![arith::addf(ib, acc[0], v)]
                },
            );
            let r = b.ir.op(ws).results[0];
            func::build_return(&mut b, &[r]);
            f
        };
        lower_omp_to_hls::run(&mut ir, module).unwrap();
        let scheds = schedule_kernel(&ir, f, &device);
        let s = &scheds[0];
        // x port streams (read only, 16 cycles); fadd dependence gives 7;
        // II = max(16, 7) = 16.
        assert_eq!(s.ii, 16);
    }
}
