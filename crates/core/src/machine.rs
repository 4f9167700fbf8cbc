//! The execution machine: loads compiled [`Artifacts`] and runs the host
//! program against the simulated U280, mirroring what "run the Clang-compiled
//! host binary on the EPYC box with the FPGA programmed" did in the paper.
//!
//! The run path is split into [`HostProgram`] (parsed host module + the
//! execution routine) so that `ftn-cluster`'s sessionless calls execute
//! *exactly* the same code as the single-device [`Machine`] — pooled N=1
//! results are bit-identical to this path by construction.

use std::panic::AssertUnwindSafe;

use ftn_fpga::{fpga_power_watts, DeviceModel, KernelExecutor, ResourceUsage};
use ftn_host::{HostRuntime, RunStats};
use ftn_interp::{
    Buffer, InterpError, MemRefVal, Memory, NoObserver, Program, RtValue, DEFAULT_MAX_STEPS,
};
use ftn_mlir::{parse_module, Ir};

use crate::compiler::Artifacts;
use crate::error::CompileError;

/// Result of one host-program run.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub stats: RunStats,
    pub results: Vec<RtValue>,
    /// Median card power over the run (model of the paper's measurement).
    pub fpga_power_watts: f64,
}

/// A parsed host module, lowered to bytecode, plus the routine that executes
/// it against a device. Each call uses a fresh device data environment (a
/// fresh XRT process, as in the paper's per-trial runs) but the caller's
/// host memory.
pub struct HostProgram {
    host_ir: Ir,
    program: Program,
}

impl HostProgram {
    /// Parse and lower the host module text of compiled artifacts.
    pub fn parse(host_module_text: &str) -> Result<Self, CompileError> {
        let mut host_ir = Ir::new();
        let host_module = parse_module(&mut host_ir, host_module_text)
            .map_err(|e| CompileError::new("machine-load", e.to_string()))?;
        let program = Program::lower_module(&host_ir, host_module);
        Ok(HostProgram { host_ir, program })
    }

    /// Run host function `func` with `args` against `memory`, launching
    /// kernels on `executor`. Returns the run statistics and the function's
    /// results.
    ///
    /// The one reclaim rule of every sessionless run: what the run
    /// allocates — the data environment's device copies, the host
    /// program's `memref.alloc` locals — is freed when it ends, unless a
    /// result references one of those buffers (then all of them stay). A
    /// panic inside the program is contained into the error, its
    /// allocations freed the same way. A caller driving runs in a loop
    /// keeps a flat arena.
    pub fn run(
        &self,
        func: &str,
        args: &[RtValue],
        memory: &mut Memory,
        executor: &KernelExecutor,
        device: &DeviceModel,
    ) -> Result<(RunStats, Vec<RtValue>), CompileError> {
        let mut runtime = HostRuntime::new(executor.clone(), device.clone());
        memory.start_recording();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.program.call(
                &self.host_ir,
                func,
                args,
                memory,
                &mut runtime,
                &mut NoObserver,
                DEFAULT_MAX_STEPS,
            )
        }));
        let outcome = outcome.unwrap_or_else(|panic| {
            let msg = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied());
            let msg = format!("host program panicked: {}", msg.unwrap_or("unknown panic"));
            Err(InterpError::new(msg))
        });
        let transient = memory.take_recorded();
        let referenced = |results: &[RtValue]| {
            (results.iter())
                .any(|r| matches!(r, RtValue::MemRef(m) if transient.contains(&m.buffer)))
        };
        if !matches!(&outcome, Ok(results) if referenced(results)) {
            for &id in &transient {
                memory.free(id);
            }
        }
        let results = outcome.map_err(|e| CompileError::new("machine-run", e.to_string()))?;
        Ok((runtime.stats, results))
    }
}

/// Assemble a [`RunReport`] from run statistics and the kernel resources the
/// power model draws on (shared by `Machine` and the device pool).
pub fn report_from_stats(
    stats: RunStats,
    results: Vec<RtValue>,
    kernel_resources: &ResourceUsage,
) -> RunReport {
    let fpga_power_watts = fpga_power_watts(kernel_resources, stats.kernel_seconds);
    RunReport {
        stats,
        results,
        fpga_power_watts,
    }
}

/// See module docs.
pub struct Machine {
    pub device: DeviceModel,
    host: HostProgram,
    pub memory: Memory,
    executor: KernelExecutor,
    bitstream: ftn_fpga::Bitstream,
}

impl Machine {
    /// "Program the FPGA and load the host binary." The bitstream is parsed
    /// once here; per-run executor state is free (the parsed image is
    /// shared).
    pub fn load(artifacts: &Artifacts, device: DeviceModel) -> Result<Self, CompileError> {
        let host = HostProgram::parse(&artifacts.host_module_text)?;
        let executor = KernelExecutor::from_bitstream(&artifacts.bitstream, device.clone())
            .map_err(|e| CompileError::new("machine-bitstream", e))?;
        Ok(Machine {
            device,
            host,
            memory: Memory::new(),
            executor,
            bitstream: artifacts.bitstream.clone(),
        })
    }

    /// Allocate a host (space-0) f32 array initialized from `data`.
    pub fn host_f32(&mut self, data: &[f32]) -> RtValue {
        let buffer = self.memory.alloc(Buffer::F32(data.to_vec()), 0);
        RtValue::MemRef(MemRefVal {
            buffer,
            shape: vec![data.len() as i64],
            space: 0,
        })
    }

    /// Allocate a host i32 array.
    pub fn host_i32(&mut self, data: &[i32]) -> RtValue {
        let buffer = self.memory.alloc(Buffer::I32(data.to_vec()), 0);
        RtValue::MemRef(MemRefVal {
            buffer,
            shape: vec![data.len() as i64],
            space: 0,
        })
    }

    /// Read back a host f32 array.
    pub fn read_f32(&self, v: &RtValue) -> Vec<f32> {
        let m = v.as_memref().expect("memref value");
        match self.memory.get(m.buffer) {
            Buffer::F32(data) => data.clone(),
            other => panic!("expected f32 buffer, got {}", other.type_name()),
        }
    }

    /// Run host function `func` with `args`. Each call uses a fresh device
    /// data environment (a fresh XRT process, as in the paper's per-trial
    /// runs) but shares host memory; what the run allocates is reclaimed by
    /// [`HostProgram::run`]'s rule.
    pub fn run(&mut self, func: &str, args: &[RtValue]) -> Result<RunReport, CompileError> {
        let (stats, results) =
            (self.host).run(func, args, &mut self.memory, &self.executor, &self.device)?;
        Ok(report_from_stats(
            stats,
            results,
            &self.bitstream.kernel_resources(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;

    const SAXPY: &str = r#"
subroutine saxpy(n, a, x, y)
  implicit none
  integer :: n, i
  real :: a, x(n), y(n)
  !$omp target parallel do simd simdlen(10)
  do i = 1, n
    y(i) = y(i) + a*x(i)
  end do
  !$omp end target parallel do simd
end subroutine saxpy
"#;

    #[test]
    fn compile_load_run_saxpy_end_to_end() {
        let artifacts = Compiler::default().compile_source(SAXPY).unwrap();
        let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
        let n = 1000usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = vec![1.0; n];
        let xa = machine.host_f32(&x);
        let ya = machine.host_f32(&y);
        let report = machine
            .run(
                "saxpy",
                &[RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya.clone()],
            )
            .unwrap();
        let out = machine.read_f32(&ya);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 1.0 + 2.0 * i as f32, "element {i}");
        }
        assert_eq!(report.stats.launches, 1);
        // Implicit tofrom maps: x and y copied in, both copied back.
        assert!(report.stats.transfers >= 3, "{:?}", report.stats);
        assert!(report.stats.kernel_seconds > 0.0);
        // ~32 cycles/element at 300 MHz.
        let expect = 1000.0 * 32.0 / 300e6;
        let ratio = report.stats.kernel_seconds / expect;
        assert!(
            (0.5..2.5).contains(&ratio),
            "kernel time {} vs {}",
            report.stats.kernel_seconds,
            expect
        );
        assert!((20.0..27.0).contains(&report.fpga_power_watts));
        // Per-launch accounting is consistent with the totals.
        assert_eq!(report.stats.launch_cycles.len(), 1);
        assert_eq!(report.stats.launch_cycles[0], report.stats.total_cycles);
    }
}
