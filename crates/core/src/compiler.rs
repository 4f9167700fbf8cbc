//! The compiler driver: Fortran source → artifacts.

use ftn_fpga::{Bitstream, DeviceModel, VitisBackend};
use ftn_llvm::{convert_to_llvm_dialect, downgrade_to_llvm7, emit_llvm_ir, RUNTIME_LIBRARY_IR};
use ftn_mlir::{print_op, verify, Ir, OpId, PassReport};
use ftn_passes::{device_llvm_pipeline, device_pipeline, extract_device_module, host_pipeline};

use crate::error::CompileError;

/// Compiler configuration. Every field participates in
/// [`CompilerOptions::fingerprint`] via the derived `Serialize` — new
/// options are automatically part of the cache key.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CompilerOptions {
    pub device: DeviceModel,
    /// Run `commute-mac-for-vitis` on the device module so Flang-shaped MACs
    /// match the Vitis DSP recognizer (the paper's §4 future work; off by
    /// default to reproduce the paper's Table 4 as published).
    pub fix_mac_pattern: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            device: DeviceModel::u280(),
            fix_mac_pattern: false,
        }
    }
}

impl CompilerOptions {
    /// Stable fingerprint of everything that affects compilation output.
    /// `ftn-cluster`'s content-addressed artifact cache keys on
    /// `hash(source, fingerprint)`: same source + same options + same device
    /// model ⇒ same artifacts, so the compile can be served from cache.
    pub fn fingerprint(&self) -> String {
        let options = serde_json::to_string(self).expect("compiler options serialize");
        format!("v2;{options}")
    }
}

/// Everything the pipeline produces for one Fortran translation unit.
#[derive(Clone, Debug)]
pub struct Artifacts {
    /// Snapshot of the frontend output (fir + omp dialects).
    pub fir_text: String,
    /// The host module after the host pipeline + extraction (device ops).
    pub host_module_text: String,
    /// The `target="fpga"` device module in hls + scf form (Listing 4).
    pub device_module_text: String,
    /// Generated C++ with OpenCL host code (§3).
    pub host_cpp: String,
    /// Modern LLVM-IR for the device module.
    pub llvm_ir: String,
    /// LLVM-7-compatible IR with AMD SSDM intrinsics + linked runtime library.
    pub llvm7_ir: String,
    /// The synthesized bitstream ("xclbin").
    pub bitstream: Bitstream,
    /// Per-pass timing / op-count reports.
    pub pass_reports: Vec<PassReport>,
}

/// See module docs.
#[derive(Default)]
pub struct Compiler {
    pub options: CompilerOptions,
}

impl Compiler {
    pub fn new(options: CompilerOptions) -> Self {
        Compiler { options }
    }

    /// Run the full Figure-2 flow on `source`.
    pub fn compile_source(&self, source: &str) -> Result<Artifacts, CompileError> {
        let program = ftn_frontend::parse(source)
            .map_err(|e| CompileError::new("frontend", e.to_string()))?;
        self.compile_program(&program)
    }

    /// Run the flow on an already-parsed program (used by the design-space
    /// explorer, which mutates directive parameters between compilations).
    pub fn compile_program(
        &self,
        program: &ftn_frontend::Program,
    ) -> Result<Artifacts, CompileError> {
        let registry = ftn_dialects::registry();
        let mut ir = Ir::new();

        // 1. Frontend (sema + lowering).
        let info = ftn_frontend::analyze(program)
            .map_err(|e| CompileError::new("frontend", e.to_string()))?;
        let module = ftn_frontend::lower_program(&mut ir, program, &info)
            .map_err(|e| CompileError::new("frontend", e.to_string()))?;
        verify(&ir, module, &registry)
            .map_err(|e| CompileError::new("frontend-verify", e.to_string()))?;
        let fir_text = print_op(&ir, module);

        // 2. Host pipeline.
        let mut reports: Vec<PassReport> = Vec::new();
        let mut host_pm = host_pipeline();
        host_pm
            .run(&mut ir, module, &registry)
            .map_err(|e| CompileError::new("host-pipeline", e.to_string()))?;
        reports.append(&mut host_pm.reports);

        // 3. Module separation.
        let device_module = extract_device_module(&mut ir, module);
        verify(&ir, module, &registry)
            .map_err(|e| CompileError::new("extract-verify-host", e.to_string()))?;
        verify(&ir, device_module, &registry)
            .map_err(|e| CompileError::new("extract-verify-device", e.to_string()))?;

        // 4. Device pipeline (omp -> hls form).
        let mut dev_pm = device_pipeline();
        if self.options.fix_mac_pattern {
            dev_pm.add(Box::new(ftn_passes::CommuteMacPass));
        }
        dev_pm
            .run(&mut ir, device_module, &registry)
            .map_err(|e| CompileError::new("device-pipeline", e.to_string()))?;
        reports.append(&mut dev_pm.reports);

        // 5. Synthesis. The bitstream embeds the device module as printed
        // now, which is the artifact's device module too.
        let backend = VitisBackend::new(self.options.device.clone());
        let bitstream = backend
            .synthesize(&ir, device_module)
            .map_err(|e| CompileError::new("vitis-synthesis", e))?;
        let device_module_text = bitstream.module_text.clone();

        // 6. Artifacts.
        let host_module_text = print_op(&ir, module);
        let host_cpp = ftn_host::print_host_cpp(&ir, module);
        let (llvm_ir, llvm7_ir) = emit_llvm_artifacts(&mut ir, device_module, &registry)?;

        Ok(Artifacts {
            fir_text,
            host_module_text,
            device_module_text,
            host_cpp,
            llvm_ir,
            llvm7_ir,
            bitstream,
            pass_reports: reports,
        })
    }
}

/// Lower the device module to the LLVM-IR and LLVM-7 artifacts.
fn emit_llvm_artifacts(
    ir: &mut Ir,
    device_module: OpId,
    registry: &ftn_mlir::VerifierRegistry,
) -> Result<(String, String), CompileError> {
    // hls -> func.call, then llvm dialect, then text. The bitstream has
    // already captured the hls form, so mutating the module is fine.
    let mut pm = device_llvm_pipeline();
    pm.run(ir, device_module, registry)
        .map_err(|e| CompileError::new("hls-to-func", e.to_string()))?;
    let llvm_module = convert_to_llvm_dialect(ir, device_module)
        .map_err(|e| CompileError::new("convert-to-llvm", e.to_string()))?;
    let llvm_ir = emit_llvm_ir(ir, llvm_module, Default::default());
    let mut llvm7 = downgrade_to_llvm7(ir, llvm_module);
    llvm7.push_str("\n; ---- linked ftn runtime library ----\n");
    llvm7.push_str(RUNTIME_LIBRARY_IR);
    Ok((llvm_ir, llvm7))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn full_pipeline_produces_all_artifacts() {
        let compiler = Compiler::default();
        let artifacts = compiler.compile_source(SAXPY).unwrap();
        // FIR snapshot still has omp + fir forms.
        assert!(artifacts.fir_text.contains("omp.target"));
        assert!(artifacts.fir_text.contains("fir.declare"));
        // Host module: kernel triple + data ops, no omp left.
        assert!(artifacts.host_module_text.contains("device.kernel_create"));
        assert!(artifacts.host_module_text.contains("device.data_acquire"));
        assert!(artifacts.host_module_text.contains("device.lookup"));
        assert!(!artifacts.host_module_text.contains("omp."));
        // Device module: Listing 4 shape.
        assert!(artifacts.device_module_text.contains("target = \"fpga\""));
        assert!(artifacts.device_module_text.contains("hls.interface"));
        assert!(artifacts.device_module_text.contains("hls.pipeline"));
        assert!(artifacts.device_module_text.contains("hls.unroll"));
        // Host C++.
        assert!(artifacts.host_cpp.contains("cl::Kernel"));
        assert!(artifacts.host_cpp.contains("saxpy_kernel0"));
        // LLVM artifacts.
        assert!(artifacts.llvm_ir.contains("define void @saxpy_kernel0"));
        assert!(artifacts.llvm7_ir.contains("_ssdm_op_SpecPipeline"));
        assert!(artifacts.llvm7_ir.contains("float*"));
        assert!(artifacts.llvm7_ir.contains("_ftn_rt_itof"));
        // Bitstream.
        assert_eq!(artifacts.bitstream.kernels.len(), 1);
        assert_eq!(artifacts.bitstream.kernels[0].name, "saxpy_kernel0");
        // Pass reports cover both pipelines.
        let names: Vec<&str> = artifacts
            .pass_reports
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(names.contains(&"lower-omp-mapped-data"));
        assert!(names.contains(&"lower-omp-to-hls"));
    }

    #[test]
    fn frontend_errors_are_tagged() {
        let compiler = Compiler::default();
        let err = compiler.compile_source("this is not fortran").unwrap_err();
        assert_eq!(err.stage, "frontend");
    }
}
