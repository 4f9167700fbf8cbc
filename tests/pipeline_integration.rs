//! End-to-end integration tests across all crates: Fortran source through the
//! full Figure-2 flow to validated execution, plus golden checks that the IR
//! at each stage matches the paper's listings.

use ftn_bench::workloads;
use ftn_core::{Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

#[test]
fn saxpy_compile_and_execute_matches_reference() {
    let artifacts = workloads::compile_saxpy();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let n = 257; // exercises the unroll epilogue (257 = 25*10 + 7)
    let x = workloads::random_vec(n, 1, -2.0, 2.0);
    let y0 = workloads::random_vec(n, 2, -2.0, 2.0);
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y0);
    machine
        .run(
            "saxpy",
            &[RtValue::I32(n as i32), RtValue::F32(2.5), xa, ya.clone()],
        )
        .unwrap();
    let mut expect = y0;
    workloads::saxpy_ref(2.5, &x, &mut expect);
    assert_eq!(machine.read_f32(&ya), expect);
}

/// The cost model predicts with the simulator's own closed form: for one
/// SAXPY `simdlen(10)` launch its prediction is the simulated cycle count
/// exactly — single trips, unroll tails and multiples of ten alike.
#[test]
fn cost_model_prediction_equals_simulated_saxpy_cycles() {
    let artifacts = workloads::compile_saxpy();
    let model = ftn_fpga::CostModel::from_bitstream(&artifacts.bitstream);
    let saxpy = model.kernel("saxpy_kernel0").expect("saxpy has a schedule");
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let pinned = [
        (1, 422),
        (9, 1190),
        (10, 422),
        (11, 540),
        (19, 1308),
        (100, 3302),
        (1000, 32102),
        (1001, 32220),
        (4097, 131676),
    ];
    for (n, cycles) in pinned {
        let xa = machine.host_f32(&vec![1.0; n]);
        let ya = machine.host_f32(&vec![0.5; n]);
        let args = [RtValue::I32(n as i32), RtValue::F32(2.0), xa, ya];
        let stats = machine.run("saxpy", &args).unwrap().stats;
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.total_cycles, cycles, "simulated, N = {n}");
        assert_eq!(
            saxpy.estimate_cycles(n as u64),
            cycles,
            "predicted, N = {n}"
        );
    }
}

#[test]
fn sgesl_compile_and_execute_solves_system() {
    let artifacts = workloads::compile_sgesl();
    let n = 48;
    let a_orig = workloads::random_matrix(n, 3);
    let x_true = workloads::random_vec(n, 4, -1.0, 1.0);
    let b = workloads::matvec(&a_orig, n, n, &x_true);
    let mut a_lu = a_orig;
    let ipvt = workloads::sgefa_ref(&mut a_lu, n, n);

    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let aa = machine.host_f32(&a_lu);
    let ba = machine.host_f32(&b);
    let ip = machine.host_i32(&ipvt);
    let report = machine
        .run(
            "sgesl",
            &[
                aa,
                RtValue::I32(n as i32),
                RtValue::I32(n as i32),
                ip,
                ba.clone(),
            ],
        )
        .unwrap();
    let x = machine.read_f32(&ba);
    for i in 0..n {
        assert!(
            (x[i] - x_true[i]).abs() < 5e-3,
            "x[{i}] = {} vs {}",
            x[i],
            x_true[i]
        );
    }
    // 2(n-1)+... launches: n-1 forward + n backward.
    assert_eq!(report.stats.launches as usize, (n - 1) + n);
}

/// Listing 2 golden: the separated host module shape.
#[test]
fn host_module_matches_listing2_shape() {
    let artifacts = workloads::compile_saxpy();
    let host = &artifacts.host_module_text;
    // Ordered appearance: alloc -> acquire -> kernel_create -> launch -> wait -> release.
    let find = |s: &str| {
        host.find(s)
            .unwrap_or_else(|| panic!("missing {s} in host module"))
    };
    let alloc = find("device.alloc");
    let acquire = find("device.data_acquire");
    let create = find("device.kernel_create");
    let launch = find("device.kernel_launch");
    let wait = find("device.kernel_wait");
    let release = find("device.data_release");
    assert!(
        alloc < acquire && acquire < create && create < launch && launch < wait && wait < release
    );
    assert!(host.contains("device_function = @saxpy_kernel0"));
    assert!(host.contains("!device.kernelhandle"));
    // The kernel_create region is empty after extraction (Listing 2).
    let create_snippet = &host[create..create + 200.min(host.len() - create)];
    assert!(create_snippet.contains("({"), "{create_snippet}");
}

/// Listing 4 golden: the device kernel in the hls dialect.
#[test]
fn device_module_matches_listing4_shape() {
    let artifacts = workloads::compile_saxpy();
    let dev = &artifacts.device_module_text;
    assert!(dev.contains("target = \"fpga\""));
    // Interfaces bind each memref to its own bundle via an axi protocol.
    assert!(dev.contains("hls.axi_protocol"));
    assert!(dev.contains("bundle = \"gmem0\""));
    assert!(dev.contains("bundle = \"gmem1\""));
    // Pipelined loop with II operand, plus the unroll marker for simdlen(10).
    assert!(dev.contains("hls.pipeline"));
    assert!(dev.contains("hls.unroll"));
    assert!(dev.contains("scf.for"));
    // Listing 4's fastmath<contract> on the MAC.
    assert!(dev.contains("fastmath = \"contract\""));
    // No omp left on the device.
    assert!(!dev.contains("omp."));
}

#[test]
fn llvm_artifacts_are_well_formed() {
    let artifacts = workloads::compile_saxpy();
    assert!(artifacts.llvm_ir.contains("target triple"));
    assert!(artifacts
        .llvm_ir
        .contains("define void @saxpy_kernel0(ptr %0"));
    assert!(artifacts.llvm_ir.contains("phi"));
    // Downgrade: typed pointers, SSDM intrinsics, runtime library linked.
    assert!(artifacts.llvm7_ir.contains("float*"));
    assert!(!artifacts.llvm7_ir.contains(" ptr "));
    assert!(artifacts.llvm7_ir.contains("_ssdm_op_SpecPipeline"));
    assert!(artifacts.llvm7_ir.contains("_ssdm_op_SpecUnroll"));
    assert!(artifacts.llvm7_ir.contains("@_ftn_rt_stream_read_f32"));
}

#[test]
fn bitstream_roundtrips_and_reexecutes() {
    let artifacts = workloads::compile_saxpy();
    let bytes = artifacts.bitstream.to_bytes();
    let reloaded = ftn_fpga::Bitstream::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.kernels.len(), artifacts.bitstream.kernels.len());
    let exec = ftn_fpga::KernelExecutor::from_bitstream(&reloaded, DeviceModel::u280()).unwrap();
    // The reloaded module re-parses into executable IR.
    assert!(exec.ir().live_op_count() > 10);
}

#[test]
fn dotprod_reduction_computes_correct_value() {
    // Wrap dotprod in a program that stores the reduced scalar to an array
    // so the value is observable from outside.
    let src = r#"
subroutine dotwrap(n, x, y, out)
  implicit none
  integer :: n, i
  real :: x(n), y(n), out(1), s
  s = 0.0
  !$omp target parallel do simd simdlen(8) reduction(+:s)
  do i = 1, n
    s = s + x(i)*y(i)
  end do
  !$omp end target parallel do simd
  out(1) = s
end subroutine
"#;
    let artifacts = Compiler::default().compile_source(src).unwrap();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let n = 100;
    let x = workloads::random_vec(n, 5, -1.0, 1.0);
    let y = workloads::random_vec(n, 6, -1.0, 1.0);
    let expect: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let out = machine.host_f32(&[0.0]);
    machine
        .run("dotwrap", &[RtValue::I32(n as i32), xa, ya, out.clone()])
        .unwrap();
    let got = machine.read_f32(&out)[0];
    assert!(
        (got - expect).abs() < 1e-3,
        "dot product {got} vs reference {expect}"
    );
}

#[test]
fn target_update_moves_data_mid_region() {
    let src = r#"
subroutine upd(n, a)
  implicit none
  integer :: n, i
  real :: a(n)
  !$omp target enter data map(to: a)
  !$omp target
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
  !$omp end target
  !$omp target update from(a)
  !$omp target exit data map(from: a)
end subroutine
"#;
    let artifacts = Compiler::default().compile_source(src).unwrap();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let a0 = vec![1.0f32; 6];
    let aa = machine.host_f32(&a0);
    machine.run("upd", &[RtValue::I32(6), aa.clone()]).unwrap();
    assert_eq!(machine.read_f32(&aa), vec![2.0f32; 6]);
}

#[test]
fn pass_reports_cover_the_whole_flow() {
    let artifacts = workloads::compile_saxpy();
    let names: Vec<&str> = artifacts
        .pass_reports
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(
        names,
        vec![
            "fir-to-core",
            "lower-omp-mapped-data",
            "lower-omp-target-region",
            "canonicalize",
            "lower-omp-to-hls",
            "canonicalize",
        ]
    );
}
