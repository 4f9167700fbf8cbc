//! Heap traffic of a target region, counted. A host op is decoded once per
//! run (`ftn_host::HostRuntime`) and a `ftn_interp::Program` keeps the
//! frames, strip state and hook-argument vector of finished calls, so a
//! warm launch pays for what it returns, not for its bookkeeping.
//!
//! * One warm SGESL `Machine::run` at N = 48 (95 launches, 380 transfers)
//!   made 7 359 heap allocations when every hook call matched op names and
//!   every kernel call built its frame and strip state afresh; it must stay
//!   at or below 55 % of that.
//! * A second `KernelExecutor::execute` of `sgesl_kernel0` makes at most
//!   [`EXECUTE_ALLOCATIONS`], and one of `saxpy_kernel0` at 131 072
//!   elements no more (129 strips of its re-rolled `simdlen(10)` body), nor
//!   one of `jacobi_kernel0` at 32 768 (32 strips whose loads are read in
//!   place).
//! * Warm runs keep no heap: what the kept scratch holds stops growing once
//!   every call depth and strip width has been seen.
//!
//! The counting allocator is this test binary's own: it counts on the
//! thread that allocates, so the harness's other threads do not blur the
//! reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftn_bench::workloads;
use ftn_core::{Artifacts, Compiler, Machine};
use ftn_dialects::device;
use ftn_fpga::{DeviceModel, KernelExecutor};
use ftn_host::HostRuntime;
use ftn_interp::{DialectHooks, InterpError, Memory, NoObserver, RtValue};
use ftn_mlir::{Ir, OpId};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

fn count_one(bytes: i64) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    hold(bytes);
}

fn hold(bytes: i64) {
    let _ = HELD.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counts are
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// What one warm SGESL N = 48 `Machine::run` made when every host op was
/// matched by name and every call allocated its own scratch.
const PER_CALL_SCRATCH_ALLOCATIONS: u64 = 7_359;

/// What a warm `execute` of `sgesl_kernel0` may still allocate:
/// `ExecutionStats::kernel` (a `String`), its `loop_instances` (a `Vec`),
/// and the shape of each of the kernel's two memref arguments as the
/// call's frame takes its own descriptor.
const EXECUTE_ALLOCATIONS: u64 = 4;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const N: usize = 48;

/// SGESL's arguments on `machine`'s host memory. Each run solves in place,
/// so a later run starts from the previous solution: the same work.
fn sgesl_args(machine: &mut Machine) -> Vec<RtValue> {
    let x_true = workloads::random_vec(N, 4, -1.0, 1.0);
    let mut a = workloads::random_matrix(N, 3);
    let b0 = workloads::matvec(&a, N, N, &x_true);
    let ipvt = workloads::sgefa_ref(&mut a, N, N);
    vec![
        machine.host_f32(&a),
        RtValue::I32(N as i32),
        RtValue::I32(N as i32),
        machine.host_i32(&ipvt),
        machine.host_f32(&b0),
    ]
}

#[test]
fn a_warm_sgesl_run_makes_at_most_55_percent_of_the_per_call_scratch_allocations() {
    let artifacts = workloads::compile_sgesl();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let args = sgesl_args(&mut machine);
    // The first run also fills whatever is kept across runs.
    machine.run("sgesl", &args).unwrap();
    let (report, made) = allocations_of(|| machine.run("sgesl", &args).unwrap());
    assert_eq!(report.stats.launches as usize, 2 * N - 1);
    println!(
        "one warm SGESL N={N} run: {made} allocations, {:.1} per launch",
        made as f64 / report.stats.launches as f64
    );
    assert!(
        made * 100 <= PER_CALL_SCRATCH_ALLOCATIONS * 55,
        "{made} allocations, more than 55 % of {PER_CALL_SCRATCH_ALLOCATIONS}"
    );
}

#[test]
fn warm_sgesl_runs_keep_no_heap() {
    let artifacts = workloads::compile_sgesl();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let args = sgesl_args(&mut machine);
    for _ in 0..2 {
        machine.run("sgesl", &args).unwrap();
    }
    let held = || HELD.with(Cell::get);
    let before = held();
    for _ in 0..8 {
        machine.run("sgesl", &args).unwrap();
    }
    assert_eq!(held() - before, 0, "bytes kept by eight warm runs");
}

/// Keeps the first kernel launch: its function, its arguments and the
/// memory it started from.
struct FirstLaunch {
    inner: HostRuntime,
    created: Option<(String, Vec<RtValue>)>,
    launch: Option<(String, Vec<RtValue>, Memory)>,
}

impl DialectHooks for FirstLaunch {
    fn handle_op(
        &mut self,
        ir: &Ir,
        memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        let name = ir.op_name(op);
        if name == device::KERNEL_CREATE && self.created.is_none() {
            let function = device::kernel_function(ir, op).to_string();
            self.created = Some((function, args.to_vec()));
        }
        if name == device::KERNEL_LAUNCH && self.launch.is_none() {
            let (function, args) = self.created.clone().expect("created before launched");
            self.launch = Some((function, args, memory.clone()));
        }
        self.inner.handle_op(ir, memory, op, args)
    }
}

/// Run host function `func` of `artifacts` on `args` (of `machine`'s
/// memory) up to its first kernel launch, then that kernel twice from the
/// memory it started from: the allocations of the second, warm, execute.
fn warm_first_launch(
    artifacts: &Artifacts,
    machine: &Machine,
    (func, args): (&str, &[RtValue]),
    kernel: &str,
) -> u64 {
    let executor = KernelExecutor::from_bitstream(&artifacts.bitstream, DeviceModel::u280())
        .expect("bitstream instantiates");
    let mut ir = Ir::new();
    let module = ftn_mlir::parse_module(&mut ir, &artifacts.host_module_text).unwrap();
    let mut memory = machine.memory.clone();
    let mut hooks = FirstLaunch {
        inner: HostRuntime::new(executor.clone(), DeviceModel::u280()),
        created: None,
        launch: None,
    };
    ftn_interp::call_function(
        &ir,
        module,
        func,
        args,
        &mut memory,
        &mut hooks,
        &mut NoObserver,
    )
    .unwrap();
    let (launched, kernel_args, start) = hooks.launch.expect("the host launches a kernel");
    assert_eq!(launched, kernel);

    let mut first = start.clone();
    executor.execute(kernel, &kernel_args, &mut first).unwrap();
    let mut memory = start;
    let (stats, made) = allocations_of(|| executor.execute(kernel, &kernel_args, &mut memory));
    let stats = stats.unwrap();
    for b in kernel_args.iter().filter_map(|a| a.as_memref().ok()) {
        assert_eq!(
            first.get(b.buffer),
            memory.get(b.buffer),
            "a warm call computes what a cold one did"
        );
    }
    println!(
        "one warm execute of {kernel}: {made} allocations, {} cycles",
        stats.cycles
    );
    made
}

#[test]
fn a_warm_kernel_execute_allocates_only_what_it_returns() {
    let artifacts = workloads::compile_sgesl();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let args = sgesl_args(&mut machine);
    let launch = ("sgesl", &args[..]);
    let made = warm_first_launch(&artifacts, &machine, launch, "sgesl_kernel0");
    assert!(
        made <= EXECUTE_ALLOCATIONS,
        "{made} allocations, more than {EXECUTE_ALLOCATIONS}"
    );
}

/// What a warm `execute` of `jacobi_kernel0` at 32 768 elements may
/// allocate: what [`EXECUTE_ALLOCATIONS`] names for `sgesl_kernel0`. Its
/// loads are windows on the buffers, which hold no heap of their own.
const JACOBI_EXECUTE_ALLOCATIONS: u64 = 4;

#[test]
fn a_warm_jacobi_execute_allocates_nothing_per_strip() {
    const N: usize = 32_768;
    let artifacts = Compiler::default()
        .compile_source(workloads::JACOBI_F90)
        .expect("jacobi compiles");
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let u = machine.host_f32(&workloads::random_vec(N, 5, -1.0, 1.0));
    let v = machine.host_f32(&vec![0.0; N]);
    let args = [RtValue::I32(N as i32), u, v];
    let launch = ("jacobi", &args[..]);
    let made = warm_first_launch(&artifacts, &machine, launch, "jacobi_kernel0");
    assert!(
        made <= JACOBI_EXECUTE_ALLOCATIONS,
        "{made} allocations, more than {JACOBI_EXECUTE_ALLOCATIONS}"
    );
}

/// What a warm `execute` of `saxpy_kernel0` at 131 072 elements may
/// allocate: what [`EXECUTE_ALLOCATIONS`] names for `sgesl_kernel0`, and
/// what it made while its strips ran all ten copies of the `simdlen(10)`
/// body one lane an iteration. Running one copy over ten lanes an
/// iteration uses the registers the program keeps.
const SAXPY_EXECUTE_ALLOCATIONS: u64 = 4;

#[test]
fn a_warm_saxpy_execute_allocates_nothing_per_strip() {
    const N: usize = 131_072;
    let artifacts = workloads::compile_saxpy();
    let executor = KernelExecutor::from_bitstream(&artifacts.bitstream, DeviceModel::u280())
        .expect("bitstream instantiates");
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let (x0, y0) = (
        workloads::random_vec(N, 1, -1.0, 1.0),
        workloads::random_vec(N, 2, -1.0, 1.0),
    );
    let x = machine.host_f32(&x0);
    let y = machine.host_f32(&y0);
    let index = |v: usize| RtValue::Index(v as i64);
    let args = [
        x,
        y.clone(),
        index(N),
        index(N),
        RtValue::F32(1.5),
        index(1),
        index(N),
    ];
    let mut memory = machine.memory.clone();
    executor
        .execute("saxpy_kernel0", &args, &mut memory)
        .unwrap();
    let (stats, made) = allocations_of(|| executor.execute("saxpy_kernel0", &args, &mut memory));
    let stats = stats.unwrap();
    let mut want = y0;
    for _ in 0..2 {
        workloads::saxpy_ref(1.5, &x0, &mut want);
    }
    let y = y.as_memref().unwrap().buffer;
    assert!(
        matches!(memory.get(y), ftn_interp::Buffer::F32(got) if *got == want),
        "two calls compute y + 2 * 1.5x, one after the other"
    );
    println!(
        "one warm execute of saxpy_kernel0 at N={N}: {made} allocations, {} cycles",
        stats.cycles
    );
    assert!(
        made <= SAXPY_EXECUTE_ALLOCATIONS,
        "{made} allocations, more than {SAXPY_EXECUTE_ALLOCATIONS}"
    );
}
