//! The kernel executor: functional execution over real buffers (via
//! `ftn-interp`) with analytic cycle accounting — a pipelined loop instance
//! with trip count *t* contributes `depth + (t-1)·II` cycles, exactly the
//! standard HLS timing closed form; non-pipelined loops pay their body
//! latency per iteration.

use std::collections::HashMap;
use std::sync::Arc;

use ftn_interp::{InterpError, Memory, NoHooks, Observer, Program, RtValue, DEFAULT_MAX_STEPS};
use ftn_mlir::{Ir, OpId};

use crate::bitstream::Bitstream;
use crate::device_model::DeviceModel;
use crate::schedule::{loop_index_map, LoopInfo};

/// Fixed per-invocation control cycles (kernel start/finish handshake).
pub const KERNEL_CONTROL_CYCLES: u64 = 300;

/// Result of one kernel execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionStats {
    /// The executed kernel's name.
    pub kernel: String,
    /// Total charged cycles (control + every loop instance).
    pub cycles: u64,
    /// Kernel time (cycles / clock), excluding launch overhead.
    pub kernel_seconds: f64,
    /// Kernel time plus the OpenCL launch overhead.
    pub wall_seconds: f64,
    /// (loop index, trip count) for every executed loop instance.
    pub loop_instances: Vec<(usize, u64)>,
    /// Real wall-clock seconds the simulator's interpreter spent executing
    /// the kernel on the host (not simulated device time — the cost of the
    /// simulation itself, surfaced for observability).
    pub host_wall_seconds: f64,
    /// The kernel's return values.
    pub results: Vec<RtValue>,
}

/// Timing fields of [`ExecutionStats`] as JSON. The `results` payload holds
/// runtime values (buffer handles), which are not statistics, so it is
/// deliberately excluded from the serialized form.
impl serde::Serialize for ExecutionStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("kernel".into(), self.kernel.to_value()),
            ("cycles".into(), self.cycles.to_value()),
            ("kernel_seconds".into(), self.kernel_seconds.to_value()),
            ("wall_seconds".into(), self.wall_seconds.to_value()),
            (
                "host_wall_seconds".into(),
                self.host_wall_seconds.to_value(),
            ),
            ("loop_instances".into(), self.loop_instances.to_value()),
        ])
    }
}

/// The immutable, shareable part of an instantiated bitstream: the parsed
/// device module, every kernel lowered to bytecode, and per kernel the
/// loop-index table and schedule the cycle accounting reads. Parsing and
/// lowering are the expensive steps of `KernelExecutor` construction, so
/// pools of executors (ftn-cluster) instantiate one image and share it
/// across devices/threads behind an [`Arc`].
pub struct ExecutorImage {
    ir: Ir,
    program: Program,
    kernels: HashMap<String, KernelTiming>,
}

/// What charging one kernel's loop instances needs, computed at image build.
struct KernelTiming {
    /// Loop op → its index in the kernel's schedule order.
    index_of: HashMap<OpId, usize>,
    /// Schedule entry of each loop index (`None`: unscheduled).
    schedule: Vec<Option<LoopInfo>>,
}

impl ExecutorImage {
    /// Parse a bitstream's module text, lower its kernels and index the
    /// schedules.
    pub fn from_bitstream(bitstream: &Bitstream) -> Result<Self, String> {
        let mut ir = Ir::new();
        let module = bitstream.instantiate(&mut ir)?;
        let schedules = bitstream
            .kernels
            .iter()
            .map(|k| (k.name.clone(), k.schedule.clone()))
            .collect();
        Ok(ExecutorImage::new(ir, module, schedules))
    }

    fn new(ir: Ir, module: OpId, mut schedules: HashMap<String, Vec<LoopInfo>>) -> Self {
        let program = Program::lower_module(&ir, module);
        let kernels = program
            .functions()
            .map(|(name, func)| {
                let index_of = loop_index_map(&ir, func);
                let loops = schedules.remove(name).unwrap_or_default();
                let schedule = (0..index_of.len())
                    .map(|i| loops.iter().find(|s| s.loop_index == i).cloned())
                    .collect();
                (name.to_string(), KernelTiming { index_of, schedule })
            })
            .collect();
        ExecutorImage {
            ir,
            program,
            kernels,
        }
    }
}

/// Executes kernels from a [`Bitstream`] on the simulated device. Cloning is
/// cheap (the parsed module is shared), so one image can fan out across a
/// device pool.
#[derive(Clone)]
pub struct KernelExecutor {
    image: Arc<ExecutorImage>,
    /// The device model timing this executor's cycle accounting.
    pub device: DeviceModel,
}

struct TripObserver<'a> {
    index_of: &'a HashMap<OpId, usize>,
    instances: Vec<(usize, u64)>,
}

impl Observer for TripObserver<'_> {
    fn loop_executed(&mut self, _ir: &Ir, op: OpId, trip: u64) {
        if let Some(&idx) = self.index_of.get(&op) {
            self.instances.push((idx, trip));
        }
    }
}

impl KernelExecutor {
    /// Load a bitstream: parse its module text and index the schedules.
    pub fn from_bitstream(bitstream: &Bitstream, device: DeviceModel) -> Result<Self, String> {
        Ok(KernelExecutor {
            image: Arc::new(ExecutorImage::from_bitstream(bitstream)?),
            device,
        })
    }

    /// Bind an already-parsed (shared) image to a device.
    pub fn from_image(image: Arc<ExecutorImage>, device: DeviceModel) -> Self {
        KernelExecutor { image, device }
    }

    /// The shared image (for pools that fan one parse out to many devices).
    pub fn image(&self) -> &Arc<ExecutorImage> {
        &self.image
    }

    /// The parsed device module.
    pub fn ir(&self) -> &Ir {
        &self.image.ir
    }

    /// Execute `kernel` with `args` against `memory`; returns results plus
    /// cycle-accurate-ish timing derived from the schedule.
    pub fn execute(
        &self,
        kernel: &str,
        args: &[RtValue],
        memory: &mut Memory,
    ) -> Result<ExecutionStats, InterpError> {
        self.execute_within(kernel, args, memory, DEFAULT_MAX_STEPS)
    }

    fn execute_within(
        &self,
        kernel: &str,
        args: &[RtValue],
        memory: &mut Memory,
        max_steps: u64,
    ) -> Result<ExecutionStats, InterpError> {
        let image = &*self.image;
        let timing = image
            .kernels
            .get(kernel)
            .ok_or_else(|| InterpError::new(format!("no kernel '{kernel}' in bitstream")))?;
        let mut observer = TripObserver {
            index_of: &timing.index_of,
            instances: Vec::new(),
        };
        let mut span = ftn_trace::span("kernel.execute", "fpga");
        span.arg("kernel", kernel);
        let started = std::time::Instant::now();
        let results = image.program.call(
            &image.ir,
            kernel,
            args,
            memory,
            &mut NoHooks,
            &mut observer,
            max_steps,
        )?;
        let host_wall_seconds = started.elapsed().as_secs_f64();

        let mut cycles = KERNEL_CONTROL_CYCLES;
        for &(idx, trip) in &observer.instances {
            cycles += match &timing.schedule[idx] {
                Some(s) => s.cycles(trip),
                // Unscheduled loop (shouldn't happen): charge 1 cycle/iter.
                None => trip + 2,
            };
        }
        let kernel_seconds = self.device.cycles_to_seconds(cycles);
        let wall_seconds = kernel_seconds + self.device.launch_overhead_us * 1e-6;
        span.arg("cycles", cycles);
        span.arg("sim_us", ftn_trace::ArgValue::Fixed1(wall_seconds * 1e6));
        Ok(ExecutionStats {
            kernel: kernel.to_string(),
            cycles,
            kernel_seconds,
            wall_seconds,
            loop_instances: observer.instances,
            host_wall_seconds,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vitis::VitisBackend;
    use ftn_dialects::{arith, builtin, func as func_d, memref, omp};
    use ftn_interp::{Buffer, MemRefVal};
    use ftn_mlir::Builder;
    use ftn_passes::lower_omp_to_hls;

    /// Synthesize a SAXPY kernel via the real device pipeline and run it.
    fn synth_saxpy(simdlen: Option<i64>) -> (Bitstream, KernelExecutor) {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) =
                func_d::build_func(&mut b, "saxpy_kernel0", &[mty, mty, f32t, index], &[]);
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
            func_d::build_return(&mut b, &[]);
        }
        lower_omp_to_hls::run(&mut ir, module).unwrap();
        let backend = VitisBackend::new(DeviceModel::u280());
        let bs = backend.synthesize(&ir, module).unwrap();
        let exec = KernelExecutor::from_bitstream(&bs, DeviceModel::u280()).unwrap();
        (bs, exec)
    }

    fn run(exec: &KernelExecutor, n: i64) -> (Vec<f32>, ExecutionStats) {
        let (data, stats) = run_within(exec, n, DEFAULT_MAX_STEPS);
        (data, stats.unwrap())
    }

    fn run_within(
        exec: &KernelExecutor,
        n: i64,
        max_steps: u64,
    ) -> (Vec<f32>, Result<ExecutionStats, InterpError>) {
        let mut memory = Memory::new();
        let x = memory.alloc(Buffer::F32((0..n).map(|i| i as f32).collect()), 1);
        let y = memory.alloc(Buffer::F32(vec![1.0; n as usize]), 1);
        let args = vec![
            RtValue::MemRef(MemRefVal {
                buffer: x,
                shape: vec![n],
                space: 1,
            }),
            RtValue::MemRef(MemRefVal {
                buffer: y,
                shape: vec![n],
                space: 1,
            }),
            RtValue::F32(2.0),
            RtValue::Index(n),
        ];
        let stats = exec.execute_within("saxpy_kernel0", &args, &mut memory, max_steps);
        let Buffer::F32(data) = memory.get(y) else {
            panic!()
        };
        (data.clone(), stats)
    }

    #[test]
    fn executes_correctly_through_bitstream_roundtrip() {
        let (bs, exec) = synth_saxpy(Some(10));
        // Serialize + reload the bitstream, then execute.
        let reloaded = Bitstream::from_bytes(&bs.to_bytes()).unwrap();
        let exec2 = KernelExecutor::from_bitstream(&reloaded, DeviceModel::u280()).unwrap();
        let (data, _) = run(&exec2, 25);
        let expect: Vec<f32> = (0..25).map(|i| 1.0 + 2.0 * i as f32).collect();
        assert_eq!(data, expect);
        drop(exec);
    }

    #[test]
    fn unrolled_kernel_is_about_3x_faster_than_scalar() {
        let (_b1, scalar) = synth_saxpy(None);
        let (_b2, simd) = synth_saxpy(Some(10));
        let n = 100_000;
        let (_, s_scalar) = run(&scalar, n);
        let (_, s_simd) = run(&simd, n);
        // 96 cycles/elem vs 32 cycles/elem.
        let ratio = s_scalar.kernel_seconds / s_simd.kernel_seconds;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn timing_matches_closed_form() {
        let (_bs, exec) = synth_saxpy(Some(10));
        let n: i64 = 100_000;
        let (_, stats) = run(&exec, n);
        // 32 cycles/element at 300 MHz ≈ 10.7 ms (the Table 1 N=100K point).
        assert!(
            (0.009..0.013).contains(&stats.kernel_seconds),
            "{}",
            stats.kernel_seconds
        );
        // Main loop (N/10 trips) + epilogue (0 trips).
        assert_eq!(stats.loop_instances.len(), 2);
        assert_eq!(stats.loop_instances[0].1, (n / 10) as u64);
    }

    /// The budget is what stops a runaway user loop from pinning a device
    /// worker.
    #[test]
    fn runaway_kernel_exhausts_the_step_budget() {
        let (_bs, exec) = synth_saxpy(None);
        let (data, stats) = run_within(&exec, 1000, 5_000);
        let err = stats.unwrap_err();
        assert!(
            err.message.contains("interpreter step budget exhausted"),
            "{err}"
        );
        // It stopped part-way: some elements updated, not all.
        let updated = data.iter().filter(|&&v| v != 1.0).count();
        assert!((1..999).contains(&updated), "{updated}");
        let (_, stats) = run_within(&exec, 1000, 20_000);
        assert!(stats.is_ok());
    }
}
