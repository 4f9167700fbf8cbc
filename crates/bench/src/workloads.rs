//! Benchmark workloads: the paper's two kernels (SAXPY from LAPACK, SGESL
//! from LINPACK), input generation (including the SGEFA LU factorization
//! SGESL consumes), CPU reference implementations, and the hand-written-HLS
//! baselines the tables compare against.

use ftn_core::{Artifacts, Compiler, Machine};
use ftn_dialects::{arith, builtin, func, memref, omp};
use ftn_fpga::{Bitstream, DeviceModel, KernelExecutor, VitisBackend};
use ftn_interp::{Buffer, MemRefVal, Memory, RtValue};
use ftn_mlir::{Builder, Ir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SAXPY Fortran source (paper Listing 5).
pub const SAXPY_F90: &str = include_str!("../../../benchmarks/saxpy.f90");
/// SGESL Fortran source (paper Listing 6 + surrounding routine).
pub const SGESL_F90: &str = include_str!("../../../benchmarks/sgesl.f90");
/// Dot-product with reduction clause (extension workload).
pub const DOTPROD_F90: &str = include_str!("../../../benchmarks/dotprod.f90");
/// 1-D Jacobi relaxation sweep (iterative stencil workload).
pub const JACOBI_F90: &str = include_str!("../../../benchmarks/jacobi.f90");
/// 1-D explicit heat equation step (iterative stencil with a scalar
/// coefficient).
pub const HEAT_F90: &str = include_str!("../../../benchmarks/heat.f90");

/// Which implementation produced a measurement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    FortranOpenMP,
    HandWrittenHls,
}

// ---- input generation -----------------------------------------------------------

/// Deterministic vector in [lo, hi).
pub fn random_vec(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Diagonally-dominant dense matrix (column-major `lda = n`) so LU
/// factorization is well conditioned.
pub fn random_matrix(n: usize, seed: u64) -> Vec<f32> {
    let mut a = random_vec(n * n, seed, -1.0, 1.0);
    for i in 0..n {
        a[i + i * n] += n as f32;
    }
    a
}

// ---- CPU references -----------------------------------------------------------------

/// Reference SAXPY.
pub fn saxpy_ref(a: f32, x: &[f32], y: &mut [f32]) {
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

/// SGEFA: LU factorization with partial pivoting, column-major, in place
/// (the Single-precision GEneral FActorization SGESL depends on). Returns
/// the pivot vector (1-based, as LINPACK records it).
pub fn sgefa_ref(a: &mut [f32], lda: usize, n: usize) -> Vec<i32> {
    let mut ipvt = vec![0i32; n];
    for k in 0..n - 1 {
        // Pivot: largest magnitude in column k at/below the diagonal.
        let mut l = k;
        for i in k + 1..n {
            if a[i + k * lda].abs() > a[l + k * lda].abs() {
                l = i;
            }
        }
        ipvt[k] = (l + 1) as i32;
        if a[l + k * lda] == 0.0 {
            continue; // singular column; LINPACK records info instead
        }
        if l != k {
            a.swap(l + k * lda, k + k * lda);
        }
        // Multipliers.
        let pivot = a[k + k * lda];
        for i in k + 1..n {
            a[i + k * lda] = -a[i + k * lda] / pivot;
        }
        // Column elimination.
        for j in k + 1..n {
            let mut t = a[l + j * lda];
            if l != k {
                a[l + j * lda] = a[k + j * lda];
                a[k + j * lda] = t;
            }
            t = a[k + j * lda];
            // Recompute t after potential swap.
            let t = t;
            for i in k + 1..n {
                a[i + j * lda] += t * a[i + k * lda];
            }
        }
    }
    ipvt[n - 1] = n as i32;
    ipvt
}

/// Reference SGESL (job = 0): solve A*x = b given SGEFA output.
pub fn sgesl_ref(a: &[f32], lda: usize, n: usize, ipvt: &[i32], b: &mut [f32]) {
    for k in 0..n - 1 {
        let l = (ipvt[k] - 1) as usize;
        let t = b[l];
        if l != k {
            b[l] = b[k];
            b[k] = t;
        }
        for j in k + 1..n {
            b[j] += t * a[j + k * lda];
        }
    }
    for kb in 0..n {
        let k = n - 1 - kb;
        b[k] /= a[k + k * lda];
        let t = -b[k];
        for j in 0..k {
            b[j] += t * a[j + k * lda];
        }
    }
}

/// Dense mat-vec (column-major) for validation: y = A * x.
pub fn matvec(a: &[f32], lda: usize, n: usize, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; n];
    for j in 0..n {
        for i in 0..n {
            y[i] += a[i + j * lda] * x[j];
        }
    }
    y
}

// ---- Fortran OpenMP flow runs ------------------------------------------------------

/// Outcome of one SAXPY run through a flow.
#[derive(Clone, Debug)]
pub struct SaxpyRun {
    pub kernel_seconds: f64,
    pub y: Vec<f32>,
    pub bitstream: Bitstream,
}

/// Compile the SAXPY Fortran source once.
pub fn compile_saxpy() -> Artifacts {
    Compiler::default()
        .compile_source(SAXPY_F90)
        .expect("saxpy compiles")
}

/// Run SAXPY through the Fortran OpenMP flow at size `n`.
pub fn run_saxpy_fortran(artifacts: &Artifacts, n: usize, seed: u64) -> SaxpyRun {
    let mut machine = Machine::load(artifacts, DeviceModel::u280()).expect("machine loads");
    let x = random_vec(n, seed, -1.0, 1.0);
    let y = random_vec(n, seed ^ 0x9e37, -1.0, 1.0);
    let a = 2.5f32;
    let xa = machine.host_f32(&x);
    let ya = machine.host_f32(&y);
    let report = machine
        .run(
            "saxpy",
            &[RtValue::I32(n as i32), RtValue::F32(a), xa, ya.clone()],
        )
        .expect("saxpy runs");
    SaxpyRun {
        kernel_seconds: report.stats.kernel_seconds,
        y: machine.read_f32(&ya),
        bitstream: artifacts.bitstream.clone(),
    }
}

/// Outcome of one SGESL run.
#[derive(Clone, Debug)]
pub struct SgeslRun {
    pub kernel_seconds: f64,
    pub x: Vec<f32>,
    pub bitstream: Bitstream,
}

/// Compile the SGESL Fortran source once.
pub fn compile_sgesl() -> Artifacts {
    Compiler::default()
        .compile_source(SGESL_F90)
        .expect("sgesl compiles")
}

/// Run SGESL through the Fortran OpenMP flow on an N×N system.
pub fn run_sgesl_fortran(artifacts: &Artifacts, n: usize, seed: u64) -> SgeslRun {
    let mut machine = Machine::load(artifacts, DeviceModel::u280()).expect("machine loads");
    let mut a = random_matrix(n, seed);
    let b = random_vec(n, seed ^ 0xabcd, -1.0, 1.0);
    let ipvt = sgefa_ref(&mut a, n, n);
    let aa = machine.host_f32(&a);
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
        .expect("sgesl runs");
    SgeslRun {
        kernel_seconds: report.stats.kernel_seconds,
        x: machine.read_f32(&ba),
        bitstream: artifacts.bitstream.clone(),
    }
}

/// Reference Jacobi sweep: `v[i] = 0.5 * (u[i-1] + u[i+1])` over the
/// interior (Fortran `do i = 2, n-1`; endpoints untouched).
pub fn jacobi_ref(u: &[f32], v: &mut [f32]) {
    for i in 1..u.len().saturating_sub(1) {
        v[i] = 0.5 * (u[i - 1] + u[i + 1]);
    }
}

/// Reference heat step: `v[i] = u[i] + r*(u[i-1] - 2u[i] + u[i+1])` over
/// the interior.
pub fn heat_ref(r: f32, u: &[f32], v: &mut [f32]) {
    for i in 1..u.len().saturating_sub(1) {
        v[i] = u[i] + r * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
    }
}

// ---- hand-written HLS baselines --------------------------------------------------------

/// Build the hand-written SAXPY kernel the way a Vitis C++ programmer writes
/// it (`y[i] = y[i] + a*x[i]`, accumulator first — Clang emits the fadd with
/// the mul as the second operand here too, so the MAC is *not* DSP-recognized
/// and both flows land on identical Table 3 utilisation). Structurally it
/// mirrors the Fortran flow's kernel: same args, same `simdlen(10)` unroll.
pub fn handwritten_saxpy_bitstream() -> Bitstream {
    let mut ir = Ir::new();
    let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
    let f32t = ir.f32t();
    let index = ir.index_t();
    let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
    {
        let mut b = Builder::at_end(&mut ir, mbody);
        // args: x, y, a, n.
        let (_f, entry) = func::build_func(&mut b, "saxpy_manual", &[mty, mty, f32t, index], &[]);
        let args = b.ir.block(entry).args.clone();
        b.set_insertion_point_to_end(entry);
        let one = arith::const_index(&mut b, 1);
        let cfg = omp::WsLoopConfig {
            parallel: true,
            simd: true,
            simdlen: Some(10),
            reduction: None,
        };
        omp::build_wsloop(&mut b, one, args[3], one, &cfg, None, |ib, iv, _| {
            let one_i = arith::const_index(ib, 1);
            let idx = arith::subi(ib, iv, one_i);
            let xv = memref::load(ib, args[0], &[idx]);
            let m = arith::binop_contract(ib, arith::MULF, args[2], xv);
            let yv = memref::load(ib, args[1], &[idx]);
            // Accumulator first: NOT the recognizer's Clang shape.
            let s = arith::binop_contract(ib, arith::ADDF, yv, m);
            memref::store(ib, s, args[1], &[idx]);
            vec![]
        });
        func::build_return(&mut b, &[]);
    }
    synthesize_baseline(ir, module)
}

/// Hand-written SGESL kernels (`b[j] = t*a[j + (k-1)*lda] + b[j]`, multiply
/// first — the Clang-shaped MAC Vitis maps onto DSPs; Table 4). Mirrors the
/// Fortran flow's structure: two kernels (forward elimination and back
/// substitution), full-matrix argument with explicit column indexing.
pub fn handwritten_sgesl_bitstream() -> Bitstream {
    let mut ir = Ir::new();
    let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
    for name in ["sgesl_fwd", "sgesl_back"] {
        build_sgesl_manual_kernel(&mut ir, mbody, name);
    }
    synthesize_baseline(ir, module)
}

/// One hand-written SGESL inner kernel:
/// `for j in lb..=ub: b[j-1] += t * a[(j-1) + (k-1)*lda]`.
fn build_sgesl_manual_kernel(ir: &mut Ir, mbody: ftn_mlir::BlockId, name: &str) {
    let f32t = ir.f32t();
    let index = ir.index_t();
    let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
    let mut b = Builder::at_end(ir, mbody);
    // args: a (matrix), b, t, k, lda, lb, ub (k/lb/ub 1-based inclusive).
    let (_f, entry) = func::build_func(
        &mut b,
        name,
        &[mty, mty, f32t, index, index, index, index],
        &[],
    );
    let args = b.ir.block(entry).args.clone();
    b.set_insertion_point_to_end(entry);
    let one = arith::const_index(&mut b, 1);
    let cfg = omp::WsLoopConfig {
        parallel: true,
        ..Default::default()
    };
    omp::build_wsloop(&mut b, args[5], args[6], one, &cfg, None, |ib, iv, _| {
        let one_i = arith::const_index(ib, 1);
        let j0 = arith::subi(ib, iv, one_i);
        let k0 = arith::subi(ib, args[3], one_i);
        let col = arith::muli(ib, k0, args[4]);
        let aidx = arith::addi(ib, j0, col);
        let av = memref::load(ib, args[0], &[aidx]);
        let m = arith::binop_contract(ib, arith::MULF, args[2], av);
        let bv = memref::load(ib, args[1], &[j0]);
        // Multiply first: the Clang shape the recognizer accepts.
        let s = arith::binop_contract(ib, arith::ADDF, m, bv);
        memref::store(ib, s, args[1], &[j0]);
        vec![]
    });
    func::build_return(&mut b, &[]);
}

fn synthesize_baseline(mut ir: Ir, module: ftn_mlir::OpId) -> Bitstream {
    ftn_passes::lower_omp_to_hls::run(&mut ir, module).expect("hls lowering");
    // Same canonicalization the Fortran flow applies, so resources compare
    // like-for-like.
    use ftn_mlir::Pass;
    ftn_passes::CanonicalizePass
        .run(&mut ir, module)
        .expect("canonicalize baseline");
    VitisBackend::new(DeviceModel::u280())
        .synthesize(&ir, module)
        .expect("synthesize baseline")
}

fn memref_val(buffer: ftn_interp::BufferId, n: usize, space: u32) -> RtValue {
    RtValue::MemRef(MemRefVal {
        buffer,
        shape: vec![n as i64],
        space,
    })
}

/// Run the hand-written SAXPY host program: a single kernel launch over the
/// whole vector (manual OpenCL host code, as in the paper's baseline).
pub fn run_saxpy_handwritten(bitstream: &Bitstream, n: usize, seed: u64) -> SaxpyRun {
    let executor = KernelExecutor::from_bitstream(bitstream, DeviceModel::u280()).unwrap();
    let mut memory = Memory::new();
    let x = random_vec(n, seed, -1.0, 1.0);
    let y0 = random_vec(n, seed ^ 0x9e37, -1.0, 1.0);
    let xb = memory.alloc(Buffer::F32(x), 1);
    let yb = memory.alloc(Buffer::F32(y0), 1);
    let args = vec![
        memref_val(xb, n, 1),
        memref_val(yb, n, 1),
        RtValue::F32(2.5),
        RtValue::Index(n as i64),
    ];
    let stats = executor
        .execute("saxpy_manual", &args, &mut memory)
        .expect("manual saxpy");
    let Buffer::F32(y) = memory.get(yb) else {
        unreachable!()
    };
    SaxpyRun {
        kernel_seconds: stats.kernel_seconds,
        y: y.clone(),
        bitstream: bitstream.clone(),
    }
}

/// Run the hand-written SGESL host program: the manual OpenCL host loop
/// launches the inner kernel once per outer iteration, with `a` and `b`
/// resident on the device and pivot swaps done via explicit element reads
/// (small transfers, not counted in kernel time — same metric as the paper).
pub fn run_sgesl_handwritten(bitstream: &Bitstream, n: usize, seed: u64) -> SgeslRun {
    let executor = KernelExecutor::from_bitstream(bitstream, DeviceModel::u280()).unwrap();
    let mut memory = Memory::new();
    let mut a = random_matrix(n, seed);
    let mut b = random_vec(n, seed ^ 0xabcd, -1.0, 1.0);
    let ipvt = sgefa_ref(&mut a, n, n);

    // Device-resident copies (manual host code keeps a and b on the card).
    let ab = memory.alloc(Buffer::F32(a.clone()), 1);
    let bb = memory.alloc(Buffer::F32(b.clone()), 1);
    let mut kernel_seconds = 0.0f64;

    let mut launch = |memory: &mut Memory, kernel: &str, t: f32, k1: i64, lb: i64, ub: i64| {
        let args = vec![
            memref_val(ab, n * n, 1),
            memref_val(bb, n, 1),
            RtValue::F32(t),
            RtValue::Index(k1),
            RtValue::Index(n as i64),
            RtValue::Index(lb),
            RtValue::Index(ub),
        ];
        let stats = executor
            .execute(kernel, &args, memory)
            .expect("manual sgesl kernel");
        kernel_seconds += stats.kernel_seconds;
    };

    // Forward elimination.
    for k in 0..n - 1 {
        // Host reads/writes individual b elements (device-resident buffer;
        // small pinned-memory reads in the real host code).
        let l = (ipvt[k] - 1) as usize;
        let t = {
            let Buffer::F32(bd) = memory.get_mut(bb) else {
                unreachable!()
            };
            let t = bd[l];
            if l != k {
                bd[l] = bd[k];
                bd[k] = t;
            }
            t
        };
        launch(
            &mut memory,
            "sgesl_fwd",
            t,
            (k + 1) as i64,
            (k + 2) as i64,
            n as i64,
        );
    }
    // Back substitution.
    for kb in 0..n {
        let k = n - 1 - kb;
        let akk = a[k + k * n];
        let t = {
            let Buffer::F32(bd) = memory.get_mut(bb) else {
                unreachable!()
            };
            bd[k] /= akk;
            -bd[k]
        };
        launch(&mut memory, "sgesl_back", t, (k + 1) as i64, 1, k as i64);
    }
    let Buffer::F32(bd) = memory.get(bb) else {
        unreachable!()
    };
    b.copy_from_slice(bd);
    SgeslRun {
        kernel_seconds,
        x: b,
        bitstream: bitstream.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgefa_sgesl_reference_solves() {
        let n = 24;
        let a_orig = random_matrix(n, 7);
        let x_true = random_vec(n, 8, -1.0, 1.0);
        let b = matvec(&a_orig, n, n, &x_true);
        let mut a = a_orig.clone();
        let ipvt = sgefa_ref(&mut a, n, n);
        let mut x = b;
        sgesl_ref(&a, n, n, &ipvt, &mut x);
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-3,
                "x[{i}] = {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn fortran_saxpy_matches_reference() {
        let artifacts = compile_saxpy();
        let n = 1003; // not a multiple of simdlen: exercises the epilogue
        let run = run_saxpy_fortran(&artifacts, n, 11);
        let x = random_vec(n, 11, -1.0, 1.0);
        let mut y = random_vec(n, 11 ^ 0x9e37, -1.0, 1.0);
        saxpy_ref(2.5, &x, &mut y);
        assert_eq!(run.y.len(), n);
        for (i, (got, want)) in run.y.iter().zip(&y).enumerate() {
            assert!((got - want).abs() < 1e-5, "i={i}");
        }
    }

    #[test]
    fn fortran_sgesl_solves_system() {
        let artifacts = compile_sgesl();
        let n = 32;
        let run = run_sgesl_fortran(&artifacts, n, 5);
        // Validate against the CPU reference.
        let mut a = random_matrix(n, 5);
        let b = random_vec(n, 5 ^ 0xabcd, -1.0, 1.0);
        let ipvt = sgefa_ref(&mut a, n, n);
        let mut x_ref = b;
        sgesl_ref(&a, n, n, &ipvt, &mut x_ref);
        for (i, (got, want)) in run.x.iter().zip(&x_ref).enumerate() {
            assert!(
                (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "x[{i}] = {got} vs {want}"
            );
        }
    }

    #[test]
    fn handwritten_saxpy_agrees_with_fortran() {
        let artifacts = compile_saxpy();
        let n = 500;
        let f = run_saxpy_fortran(&artifacts, n, 3);
        let bs = handwritten_saxpy_bitstream();
        let h = run_saxpy_handwritten(&bs, n, 3);
        for i in 0..n {
            assert!((f.y[i] - h.y[i]).abs() < 1e-5, "i={i}");
        }
        // And the runtimes are near-identical (same schedule).
        let ratio = f.kernel_seconds / h.kernel_seconds;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn handwritten_sgesl_agrees_with_fortran() {
        let artifacts = compile_sgesl();
        let n = 24;
        let f = run_sgesl_fortran(&artifacts, n, 9);
        let bs = handwritten_sgesl_bitstream();
        let h = run_sgesl_handwritten(&bs, n, 9);
        for i in 0..n {
            assert!(
                (f.x[i] - h.x[i]).abs() < 1e-3 * (1.0 + f.x[i].abs()),
                "x[{i}]: {} vs {}",
                f.x[i],
                h.x[i]
            );
        }
    }

    #[test]
    fn mac_recognition_differs_between_flows_for_sgesl() {
        let fortran = compile_sgesl();
        let handwritten = handwritten_sgesl_bitstream();
        let f_macs: usize = fortran
            .bitstream
            .kernels
            .iter()
            .map(|k| k.recognized_macs)
            .sum();
        let h_macs: usize = handwritten.kernels.iter().map(|k| k.recognized_macs).sum();
        assert_eq!(f_macs, 0, "Flang-shaped IR must not match the recognizer");
        assert!(h_macs > 0, "Clang-shaped IR must match");
        // Consequence: DSPs differ, LUTs differ the other way (Table 4).
        let f_res = fortran.bitstream.kernel_resources();
        let h_res = handwritten.kernel_resources();
        assert!(h_res.dsp > f_res.dsp, "{h_res:?} vs {f_res:?}");
        assert!(f_res.lut > h_res.lut, "{f_res:?} vs {h_res:?}");
    }
}
