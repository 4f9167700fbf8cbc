//! The adapter: every call the benchmark makes into the workspace crates
//! that is not an HTTP request lives in this file, one thin wrapper each,
//! doc-commented with the metric it feeds. A refactor that changes one of
//! these signatures sees here exactly which part of the ruler it pins.
//!
//! Wrappers do no timing themselves (except [`compile_staged`], whose whole
//! job is to time the stages of one compile); callers time the call.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ftn_cluster::{ArtifactCache, ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
pub use ftn_core::Machine;
use ftn_core::{Artifacts, Compiler, CompilerOptions};
use ftn_fpga::{Bitstream, CostModel, DeviceModel, ExecutorImage, KernelExecutor, VitisBackend};
use ftn_host::HostRuntime;
use ftn_interp::{
    Buffer, BufferId, DialectHooks, Interp, InterpError, MemRefVal, Memory, NoHooks, NoObserver,
};
use ftn_mlir::{Ir, OpId};
use ftn_serve::{ServeConfig, Server};
use ftn_shard::{ShardPlan, ShardedEnvironment};

pub use ftn_bench::workloads::{DOTPROD_F90, HEAT_F90, JACOBI_F90, SAXPY_F90, SGESL_F90};
pub use ftn_interp::RtValue;
pub use serde::Value;

// ---- inputs and CPU references (the oracle's independent side) ---------------

/// Seeded vector in `[-1, 1)`.
pub fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    ftn_bench::workloads::random_vec(n, seed, -1.0, 1.0)
}

/// Seeded diagonally dominant `n`×`n` matrix (column-major).
pub fn random_matrix(n: usize, seed: u64) -> Vec<f32> {
    ftn_bench::workloads::random_matrix(n, seed)
}

/// CPU LU factorisation producing SGESL's inputs; returns the pivots.
pub fn sgefa_ref(a: &mut [f32], n: usize) -> Vec<i32> {
    ftn_bench::workloads::sgefa_ref(a, n, n)
}

/// Oracle reference for `saxpy_stream`, `launch_storm` and the corpus.
pub fn saxpy_ref(a: f32, x: &[f32], y: &mut [f32]) {
    ftn_bench::workloads::saxpy_ref(a, x, y);
}

/// Oracle reference for `sgesl_run` and the corpus.
pub fn sgesl_ref(a: &[f32], n: usize, ipvt: &[i32], b: &mut [f32]) {
    ftn_bench::workloads::sgesl_ref(a, n, n, ipvt, b);
}

/// Oracle reference for `jacobi_sharded` and the corpus.
pub fn jacobi_ref(u: &[f32], v: &mut [f32]) {
    ftn_bench::workloads::jacobi_ref(u, v);
}

/// Oracle reference for the corpus' `heat` template.
pub fn heat_ref(r: f32, u: &[f32], v: &mut [f32]) {
    ftn_bench::workloads::heat_ref(r, u, v);
}

// ---- serve ----------------------------------------------------------------------

/// A running in-process `ftn-serve`.
pub struct ServerHandle {
    pub addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Bind the server under test on an ephemeral port and serve on a thread:
/// 2 × `u280`, 2 HTTP workers, every other setting the shipped default
/// (span recorder on, 100 ms scraper). Feeds `setup_s`.
pub fn start_server() -> std::io::Result<ServerHandle> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            devices: 2,
            workers: 2,
            ..Default::default()
        },
    )?;
    let addr = server.local_addr();
    let thread = std::thread::Builder::new()
        .name("bench-serve".into())
        .spawn(move || server.run())?;
    Ok(ServerHandle { addr, thread })
}

impl ServerHandle {
    /// Join the server thread after a `POST /shutdown`.
    pub fn join(self) -> Result<(), String> {
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))
    }
}

/// `serve.json_parse_mb_per_s`: the server's body parser on a recorded
/// open-session body.
pub fn serve_parse_body(body: &str) -> Value {
    ftn_serve::api::parse_body(body).expect("recorded body parses")
}

/// `serve.json_parse_mb_per_s`: number array to `f32`, as `POST /sessions`
/// does for every map.
pub fn serve_f32_slice(items: &[Value]) -> Vec<f32> {
    ftn_serve::api::f32_slice(items).expect("numbers")
}

/// `serve.json_write_mb_per_s`: the server's reply serialiser.
pub fn json_to_string(v: &Value) -> String {
    serde_json::to_string(v).expect("value serialises")
}

pub fn json_from_str(s: &str) -> Result<Value, String> {
    serde_json::value_from_str(s).map_err(|e| e.to_string())
}

// ---- core -------------------------------------------------------------------------

/// `wall_s`, `req_p50_us` @ `compile_corpus`: the full Figure-2 flow with
/// the `ftn` CLI's defaults (verify and LLVM emission on).
pub fn compile_source(source: &str) -> Result<Artifacts, String> {
    Compiler::default()
        .compile_source(source)
        .map_err(|e| e.to_string())
}

/// What one compile produced.
pub type Compiled = Artifacts;

/// The `compile_corpus` oracle: two compiles of one unit must produce the
/// same LLVM-7 text and the same bitstream (every field `to_bytes`
/// serialises), byte for byte.
pub fn artifacts_identical(a: &Artifacts, b: &Artifacts) -> bool {
    let (x, y) = (&a.bitstream, &b.bitstream);
    a.llvm7_ir == b.llvm7_ir
        && x.module_text == y.module_text
        && x.device_name == y.device_name
        && x.frequency_mhz == y.frequency_mhz
        && x.kernels.len() == y.kernels.len()
        && x.kernels.iter().zip(&y.kernels).all(|(k, l)| {
            k.name == l.name
                && k.schedule == l.schedule
                && k.resources == l.resources
                && k.recognized_macs == l.recognized_macs
        })
}

/// The first kernel whose name starts with `prefix` (a corpus subroutine's
/// kernels are numbered across the whole unit).
pub fn kernel_with_prefix(artifacts: &Artifacts, prefix: &str) -> Option<String> {
    artifacts
        .bitstream
        .kernels
        .iter()
        .find(|k| k.name.starts_with(prefix))
        .map(|k| k.name.clone())
}

/// The key `POST /compile` files `source` under: a content hash of the
/// source and the default compiler options.
pub fn artifact_key(source: &str) -> String {
    ArtifactCache::key(source, &CompilerOptions::default())
}

/// An `index`-typed kernel argument.
pub fn index(i: usize) -> RtValue {
    RtValue::Index(i as i64)
}

/// `saxpy_kernel0(x, y, ext_x, ext_y, a, lb, ub)` over `n` elements.
pub fn saxpy_kernel_args(x: &RtValue, y: &RtValue, n: usize, a: f32) -> Vec<RtValue> {
    vec![
        x.clone(),
        y.clone(),
        index(n),
        index(n),
        RtValue::F32(a),
        index(1),
        index(n),
    ]
}

/// `cluster.cache_hit_us`, `serve.compile_cached_us`'s lower rung.
pub struct CompileCache(ArtifactCache);

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache(ArtifactCache::new())
    }

    /// Returns whether the artifacts came from the cache.
    pub fn get_or_compile(&self, source: &str) -> bool {
        self.0
            .get_or_compile_with_hit(&CompilerOptions::default(), source)
            .expect("source compiles")
            .1
    }
}

/// `core.machine_load_us`: parse the host module and the bitstream image.
pub fn machine_load(artifacts: &Artifacts) -> Machine {
    Machine::load(artifacts, DeviceModel::u280()).expect("machine loads")
}

pub fn machine_f32(machine: &mut Machine, data: &[f32]) -> RtValue {
    machine.host_f32(data)
}

pub fn machine_i32(machine: &mut Machine, data: &[i32]) -> RtValue {
    machine.host_i32(data)
}

pub fn machine_read_f32(machine: &Machine, v: &RtValue) -> Vec<f32> {
    machine.read_f32(v)
}

/// `core.machine_run_us`, the bit-for-bit oracle, and ladder rung R2 of
/// `sgesl_run`: one host-program run on the single-device machine.
pub fn machine_run(machine: &mut Machine, func: &str, args: &[RtValue]) -> Result<(), String> {
    machine.run(func, args).map(drop).map_err(|e| e.to_string())
}

// ---- the compile, stage by stage -----------------------------------------------

/// Seconds per stage of one compile, plus the counts and sizes the stages
/// leave behind. Keys are the per-layer metric names without their unit
/// suffix (`frontend.parse`, `passes.fir-to-core`, ...).
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    pub seconds: BTreeMap<String, f64>,
    pub counts: BTreeMap<String, u64>,
    /// The synthesized bitstream and the printed host module, for the
    /// probes that load them back (`fpga.image_load_us`, `ir.parse_us`).
    pub bitstream: Option<Bitstream>,
    pub host_module_text: String,
}

impl StageReport {
    fn add(&mut self, stage: &str, started: Instant) {
        *self.seconds.entry(stage.to_string()).or_default() += started.elapsed().as_secs_f64();
    }

    pub fn total_seconds(&self) -> f64 {
        self.seconds.values().sum()
    }
}

/// The stages of `Compiler::compile_program` (default options) called one
/// by one from outside and timed: feeds every `frontend.*`, `ir.verify_us`,
/// `ir.print_us`, `passes.*`, `fpga.synth_us`, `host.cpp_*`, `llvm.*`
/// metric, and `core.compile_residual_share` (what `compile_source` costs
/// beyond the sum of these).
///
/// Verification that the pass managers run between passes is charged to
/// `ir.verify`; the LLVM pipeline's trailing canonicalize is charged to
/// `passes.hls-to-func`; building the verifier registry and freeing the IR
/// are stages of their own (`core.registry`, `core.teardown`).
pub fn compile_staged(source: &str) -> Result<StageReport, String> {
    let mut r = StageReport::default();
    let t = Instant::now();
    let registry = ftn_dialects::registry();
    let mut ir = Ir::new();
    r.add("core.registry", t);

    let t = Instant::now();
    let program = ftn_frontend::parse(source).map_err(|e| e.to_string())?;
    r.add("frontend.parse", t);

    let t = Instant::now();
    let info = ftn_frontend::analyze(&program).map_err(|e| e.message.clone())?;
    let module =
        ftn_frontend::lower_program(&mut ir, &program, &info).map_err(|e| e.message.clone())?;
    r.add("frontend.lower", t);
    r.counts
        .insert("frontend.fir_ops".into(), ir.live_op_count() as u64);

    let verify = |r: &mut StageReport, ir: &Ir, op: OpId| -> Result<(), String> {
        let t = Instant::now();
        ftn_mlir::verify(ir, op, &registry).map_err(|e| e.to_string())?;
        r.add("ir.verify", t);
        Ok(())
    };
    let print = |r: &mut StageReport, ir: &Ir, op: OpId| -> String {
        let t = Instant::now();
        let text = ftn_mlir::print_op(ir, op);
        r.add("ir.print", t);
        text
    };
    // Run one pass manager; its per-pass reports land under `names` in
    // order, and the time it spent verifying between passes under
    // `ir.verify`.
    let run_passes = |r: &mut StageReport,
                      ir: &mut Ir,
                      op: OpId,
                      mut pm: ftn_mlir::PassManager,
                      names: &[&str]|
     -> Result<(), String> {
        let t = Instant::now();
        pm.run(ir, op, &registry).map_err(|e| e.to_string())?;
        let whole = t.elapsed().as_secs_f64();
        assert_eq!(pm.reports.len(), names.len(), "pipeline changed shape");
        let mut in_passes = 0.0;
        for (report, name) in pm.reports.iter().zip(names) {
            let s = report.micros as f64 * 1e-6;
            in_passes += s;
            *r.seconds.entry(format!("passes.{name}")).or_default() += s;
            r.counts
                .insert(format!("passes.{name}_ops_after"), report.ops_after as u64);
        }
        *r.seconds.entry("ir.verify".into()).or_default() += (whole - in_passes).max(0.0);
        Ok(())
    };

    verify(&mut r, &ir, module)?;
    print(&mut r, &ir, module);

    run_passes(
        &mut r,
        &mut ir,
        module,
        ftn_passes::host_pipeline(),
        &[
            "fir-to-core",
            "lower-omp-mapped-data",
            "lower-omp-target-region",
            "canonicalize-host",
        ],
    )?;

    let t = Instant::now();
    let device_module = ftn_passes::extract_device_module(&mut ir, module);
    r.add("passes.extract-device-module", t);
    r.counts.insert(
        "passes.extract-device-module_ops_after".into(),
        ir.live_op_count() as u64,
    );
    verify(&mut r, &ir, module)?;
    verify(&mut r, &ir, device_module)?;

    run_passes(
        &mut r,
        &mut ir,
        device_module,
        ftn_passes::device_pipeline(),
        &["lower-omp-to-hls", "canonicalize-device"],
    )?;
    print(&mut r, &ir, device_module);

    let t = Instant::now();
    let bitstream = VitisBackend::new(DeviceModel::u280()).synthesize(&ir, device_module)?;
    r.add("fpga.synth", t);

    let host_text = print(&mut r, &ir, module);
    r.counts
        .insert("ir.host_module_bytes".into(), host_text.len() as u64);
    let t = Instant::now();
    let cpp = ftn_host::print_host_cpp(&ir, module);
    r.add("host.cpp_print", t);
    r.counts.insert("host.cpp_bytes".into(), cpp.len() as u64);

    run_passes(
        &mut r,
        &mut ir,
        device_module,
        ftn_passes::device_llvm_pipeline(),
        &["hls-to-func", "hls-to-func-canonicalize"],
    )?;
    // Fold the trailing canonicalize into hls-to-func (see the doc above).
    let tail = r
        .seconds
        .remove("passes.hls-to-func-canonicalize")
        .unwrap_or(0.0);
    *r.seconds.entry("passes.hls-to-func".into()).or_default() += tail;
    if let Some(ops) = r.counts.remove("passes.hls-to-func-canonicalize_ops_after") {
        r.counts.insert("passes.hls-to-func_ops_after".into(), ops);
    }

    let t = Instant::now();
    let llvm_module =
        ftn_llvm::convert_to_llvm_dialect(&mut ir, device_module).map_err(|e| e.to_string())?;
    r.add("llvm.convert", t);
    let t = Instant::now();
    let llvm_ir = ftn_llvm::emit_llvm_ir(&ir, llvm_module, Default::default());
    r.add("llvm.emit", t);
    let t = Instant::now();
    let mut llvm7 = ftn_llvm::downgrade_to_llvm7(&ir, llvm_module);
    llvm7.push_str("\n; ---- linked ftn runtime library ----\n");
    llvm7.push_str(ftn_llvm::RUNTIME_LIBRARY_IR);
    r.add("llvm.downgrade", t);
    r.counts
        .insert("llvm.ir_bytes".into(), (llvm_ir.len() + llvm7.len()) as u64);

    // `compile_program`'s locals die with it: the IR arena, the parsed
    // program, the verifier registry.
    let t = Instant::now();
    drop((ir, program, info, registry));
    r.add("core.teardown", t);

    r.bitstream = Some(bitstream);
    r.host_module_text = host_text;
    Ok(r)
}

/// `ir.parse_us`: what `HostProgram::parse` and every image load pay.
pub fn ir_parse_module(text: &str) -> usize {
    let mut ir = Ir::new();
    ftn_mlir::parse_module(&mut ir, text).expect("printed module parses");
    ir.live_op_count()
}

// ---- fpga -------------------------------------------------------------------------

/// `fpga.image_load_us`: parse a bitstream's module and index its schedules.
pub fn image_load(bitstream: &Bitstream) -> Arc<ExecutorImage> {
    Arc::new(ExecutorImage::from_bitstream(bitstream).expect("bitstream instantiates"))
}

/// `fpga.bitstream_bytes`.
pub fn bitstream_bytes(bitstream: &Bitstream) -> usize {
    bitstream.to_bytes().len()
}

/// `fpga.lut`, `fpga.dsp`, `fpga.bram`, `fpga.sum_ii`, `fpga.sum_depth`.
pub fn bitstream_totals(bitstream: &Bitstream) -> [(&'static str, u64); 5] {
    let res = bitstream.kernel_resources();
    let loops = || bitstream.kernels.iter().flat_map(|k| k.schedule.iter());
    [
        ("fpga.lut", res.lut),
        ("fpga.dsp", res.dsp),
        ("fpga.bram", res.bram),
        ("fpga.sum_ii", loops().map(|l| l.ii).sum()),
        ("fpga.sum_depth", loops().map(|l| l.depth).sum()),
    ]
}

/// `fpga.cost_model_ratio`'s numerator: what `CostModel` (which drives
/// Auto shard counts, weights and stealing) predicts for `elements`.
pub fn cost_model_seconds(bitstream: &Bitstream, elements: u64) -> f64 {
    CostModel::from_bitstream(bitstream)
        .estimate_any_seconds(&DeviceModel::u280(), elements)
        .unwrap_or(0.0)
}

/// A kernel executor over a plain [`Memory`]: ladder rung R2.
pub struct Device {
    executor: KernelExecutor,
    pub memory: Memory,
}

impl Device {
    pub fn new(bitstream: &Bitstream) -> Device {
        Device {
            executor: KernelExecutor::from_bitstream(bitstream, DeviceModel::u280())
                .expect("bitstream instantiates"),
            memory: Memory::new(),
        }
    }

    pub fn alloc_f32(&mut self, data: &[f32]) -> RtValue {
        device_memref(&mut self.memory, Buffer::F32(data.to_vec()))
    }

    pub fn read_f32(&self, v: &RtValue) -> Vec<f32> {
        let m = v.as_memref().expect("a memref value");
        match self.memory.get(m.buffer) {
            Buffer::F32(data) => data.clone(),
            other => panic!("expected an f32 buffer, got {}", other.type_name()),
        }
    }

    /// `fpga.execute_ns_per_elem`, `fpga.execute_fixed_us`, rung R2:
    /// `KernelExecutor::execute` (interpretation plus cycle accounting).
    pub fn execute(&mut self, kernel: &str, args: &[RtValue]) {
        self.executor
            .execute(kernel, args, &mut self.memory)
            .expect("kernel executes");
    }
}

fn device_memref(memory: &mut Memory, buffer: Buffer) -> RtValue {
    let len = buffer.len() as i64;
    let id = memory.alloc(buffer, 1);
    RtValue::MemRef(MemRefVal {
        buffer: id,
        shape: vec![len],
        space: 1,
    })
}

// ---- interp -----------------------------------------------------------------------

/// The bare interpreter over an instantiated device module: ladder rung R3.
pub struct BareInterp {
    ir: Ir,
    module: OpId,
    pub memory: Memory,
}

impl BareInterp {
    pub fn new(bitstream: &Bitstream) -> BareInterp {
        let mut ir = Ir::new();
        let module = bitstream
            .instantiate(&mut ir)
            .expect("bitstream instantiates");
        BareInterp {
            ir,
            module,
            memory: Memory::new(),
        }
    }

    pub fn alloc_f32(&mut self, data: &[f32]) -> RtValue {
        device_memref(&mut self.memory, Buffer::F32(data.to_vec()))
    }

    /// `interp.ns_per_elem`, `interp.call_fixed_us`, rung R3: `Interp::call`
    /// with no hooks and no observer.
    pub fn call(&mut self, kernel: &str, args: &[RtValue]) {
        Interp::new(&self.ir, self.module)
            .call(
                kernel,
                args,
                &mut self.memory,
                &mut NoHooks,
                &mut NoObserver,
            )
            .expect("kernel interprets");
    }
}

/// `interp.alloc_us`: allocate and free one `len`-element f32 buffer.
pub fn memory_alloc_free(memory: &mut Memory, len: usize) {
    let id = memory.alloc(Buffer::F32(vec![0.0; len]), 1);
    memory.free(id);
}

/// Two same-sized f32 buffers for `interp.mem_copy_gb_per_s`.
pub fn memory_pair(memory: &mut Memory, len: usize) -> (BufferId, BufferId) {
    (
        memory.alloc(Buffer::F32(vec![1.0; len]), 0),
        memory.alloc(Buffer::F32(vec![0.0; len]), 1),
    )
}

/// `interp.mem_copy_gb_per_s`: the copy behind every simulated transfer.
pub fn memory_copy(memory: &mut Memory, src: BufferId, dst: BufferId) {
    memory.copy(src, dst).expect("same-sized buffers copy");
}

pub fn new_memory() -> Memory {
    Memory::new()
}

// ---- host: the kernel calls one host-program run makes ----------------------

/// One recorded `device.kernel_create`: the device function and its
/// arguments.
pub type KernelCall = (String, Vec<RtValue>);

struct RecordingRuntime {
    inner: HostRuntime,
    calls: Vec<KernelCall>,
}

impl DialectHooks for RecordingRuntime {
    fn handle_op(
        &mut self,
        ir: &Ir,
        memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        if ir.op_name(op) == ftn_dialects::device::KERNEL_CREATE {
            self.calls.push((
                ftn_dialects::device::kernel_function(ir, op).to_string(),
                args.to_vec(),
            ));
        }
        self.inner.handle_op(ir, memory, op, args)
    }
}

/// Run host function `func` once through the real `HostRuntime` and return
/// every kernel call it made, in order. Rung R3 of `sgesl_run` replays
/// these on a [`BareInterp`] with its own buffers in place of the recorded
/// ones (the trip counts live in the scalar arguments).
pub fn record_kernel_calls(
    artifacts: &Artifacts,
    func: &str,
    build_args: impl FnOnce(&mut Memory) -> Vec<RtValue>,
) -> Vec<KernelCall> {
    let mut ir = Ir::new();
    let module =
        ftn_mlir::parse_module(&mut ir, &artifacts.host_module_text).expect("host module parses");
    let executor = KernelExecutor::from_bitstream(&artifacts.bitstream, DeviceModel::u280())
        .expect("bitstream instantiates");
    let mut hooks = RecordingRuntime {
        inner: HostRuntime::new(executor, DeviceModel::u280()),
        calls: Vec::new(),
    };
    let mut memory = Memory::new();
    let args = build_args(&mut memory);
    ftn_interp::call_function(
        &ir,
        module,
        func,
        &args,
        &mut memory,
        &mut hooks,
        &mut NoObserver,
    )
    .expect("host program runs");
    hooks.calls
}

/// A host-space f32 array in `memory` (for [`record_kernel_calls`]).
pub fn host_f32(memory: &mut Memory, data: &[f32]) -> RtValue {
    let id = memory.alloc(Buffer::F32(data.to_vec()), 0);
    RtValue::MemRef(MemRefVal {
        buffer: id,
        shape: vec![data.len() as i64],
        space: 0,
    })
}

/// A host-space i32 array in `memory`.
pub fn host_i32(memory: &mut Memory, data: &[i32]) -> RtValue {
    let id = memory.alloc(Buffer::I32(data.to_vec()), 0);
    RtValue::MemRef(MemRefVal {
        buffer: id,
        shape: vec![data.len() as i64],
        space: 0,
    })
}

/// Element count of a memref argument, `None` for scalars.
pub fn memref_len(v: &RtValue) -> Option<usize> {
    match v {
        RtValue::MemRef(m) => Some(m.num_elements()),
        _ => None,
    }
}

// ---- shard ------------------------------------------------------------------------

/// `shard.plan_us`: an equal-weight plan over `shards` shards.
pub fn shard_plan(rows: usize, shards: usize, halo: usize) -> ShardPlan {
    ShardPlan::partition_weighted(rows, &vec![1.0; shards], halo)
}

/// `(first mapped row, mapped rows)` of each shard of an equal-weight plan,
/// ghost rows included: what one shard's kernel call covers (rung R2 of
/// `jacobi_sharded`).
pub fn shard_mapped_ranges(rows: usize, shards: usize, halo: usize) -> Vec<(usize, usize)> {
    shard_plan(rows, shards, halo)
        .ranges()
        .iter()
        .map(|r| (r.mapped_start(), r.mapped_len()))
        .collect()
}

/// `shard.delta_us`: the rows that change owners between an even and a
/// 3:1 plan.
pub fn shard_delta(rows: usize, halo: usize) -> usize {
    let even = ShardPlan::partition_weighted(rows, &[1.0, 1.0], halo);
    let skewed = ShardPlan::partition_weighted(rows, &[3.0, 1.0], halo);
    ShardPlan::delta(&even, &skewed).len()
}

/// A host-side sharded environment over one array.
pub struct Scattered {
    env: ShardedEnvironment,
    pub memory: Memory,
    global: MemRefVal,
}

/// `shard.scatter_us`: split one `rows`-element array over two shards
/// with a one-row halo (`ShardedEnvironment::map`).
pub fn shard_scatter(data: &[f32]) -> Scattered {
    let mut memory = Memory::new();
    let RtValue::MemRef(global) = host_f32(&mut memory, data) else {
        unreachable!("host_f32 returns a memref")
    };
    let mut env = ShardedEnvironment::new(2);
    env.map(&mut memory, "u", &global, Partition::Split { halo: 1 })
        .expect("array scatters");
    Scattered {
        env,
        memory,
        global,
    }
}

impl Scattered {
    /// `shard.gather_us`: concatenate the owned rows back.
    pub fn gather(&mut self) -> usize {
        self.env
            .gather(&mut self.memory, "u")
            .expect("array gathers");
        self.global.num_elements()
    }
}

// ---- cluster ----------------------------------------------------------------------

/// A directly loaded pool (2 × `u280`, the server's composition): ladder
/// rung R1.
pub struct Pool(ClusterMachine);

/// `jacobi_kernel0(u, v, ext_u, ext_v, 2, n-1)` with per-shard extents.
fn jacobi_shard_args(src: &str, dst: &str) -> Vec<ShardArg> {
    vec![
        ShardArg::Array(src.into()),
        ShardArg::Array(dst.into()),
        ShardArg::Extent(src.into()),
        ShardArg::Extent(dst.into()),
        ShardArg::Scalar(RtValue::Index(2)),
        ShardArg::ExtentOffset(src.into(), -1),
    ]
}

impl Pool {
    /// `cluster.pool_load_us`: spawn the device workers, parse the image.
    pub fn load(artifacts: &Artifacts) -> Pool {
        Pool(
            ClusterMachine::load(artifacts, &[DeviceModel::u280(), DeviceModel::u280()])
                .expect("pool loads"),
        )
    }

    pub fn host_f32(&mut self, data: &[f32]) -> RtValue {
        self.0.host_f32(data)
    }

    pub fn host_i32(&mut self, data: &[i32]) -> RtValue {
        self.0.host_i32(data)
    }

    pub fn read_f32(&self, v: &RtValue) -> Vec<f32> {
        self.0.read_f32(v)
    }

    pub fn free(&mut self, v: &RtValue) {
        self.0.free_host(v).expect("host array frees");
    }

    /// `cluster.open_us`: map `x` (`to`) and `y` (`tofrom`) on one device.
    pub fn open_session(&mut self, x: &RtValue, y: &RtValue) -> u64 {
        self.0
            .open_session(&[
                ("x", x.clone(), MapKind::To),
                ("y", y.clone(), MapKind::ToFrom),
            ])
            .expect("session opens")
    }

    /// `cluster.launch_us_tiny`, `cluster.launch_us_big`, rung R1 of
    /// `saxpy_stream` and `launch_storm`: submit one kernel job against the
    /// session's resident buffers and wait for it.
    pub fn session_launch(&mut self, sid: u64, kernel: &str, args: &[RtValue]) {
        let ticket = self
            .0
            .session_launch(sid, kernel, args)
            .expect("launch submits");
        self.0.wait(ticket.handle).expect("launch completes");
    }

    /// `cluster.close_us`: fetch `y` back and free the session.
    pub fn close_session(&mut self, sid: u64) {
        self.0.close_session(sid).expect("session closes");
    }

    /// `shards` = 1 exercises the sharded code path on one device
    /// (`ShardCount::Fixed(1)`), 2 the pool's two.
    pub fn open_sharded(&mut self, u: &RtValue, v: &RtValue, shards: usize) -> u64 {
        let split = Partition::Split { halo: 1 };
        self.0
            .open_sharded_session(
                &[
                    ("u", u.clone(), MapKind::ToFrom, split),
                    ("v", v.clone(), MapKind::ToFrom, split),
                ],
                ShardCount::Fixed(shards),
            )
            .expect("sharded session opens")
    }

    /// `cluster.sharded_launch_us`, rung R1 of `jacobi_sharded` (with
    /// [`Pool::refresh_halos`]): fan one Jacobi sweep out per shard and
    /// wait for every shard job.
    pub fn sharded_launch(&mut self, sid: u64, src: &str, dst: &str) {
        let ticket = self
            .0
            .sharded_launch_no_replan(sid, "jacobi_kernel0", &jacobi_shard_args(src, dst))
            .expect("sharded launch submits");
        self.0
            .wait_sharded(ticket)
            .expect("sharded launch completes");
    }

    /// `cluster.refresh_halos_us`: exchange the ghost rows.
    pub fn refresh_halos(&mut self, sid: u64) {
        self.0.refresh_halos(sid).expect("halos refresh");
    }

    /// `cluster.sharded_close_us`: gather both arrays and free the session.
    pub fn close_sharded(&mut self, sid: u64) {
        self.0
            .close_sharded_session(sid)
            .expect("sharded session closes");
    }

    /// `cluster.run_us`, rung R1 of `sgesl_run`: one sessionless
    /// host-program job.
    pub fn run(&mut self, func: &str, args: &[RtValue]) {
        self.0.run(func, args).expect("job runs");
    }
}

// ---- trace ------------------------------------------------------------------------

/// `trace.recorder_overhead_share`: switch the process-global span recorder.
pub fn trace_set_enabled(on: bool) {
    ftn_trace::set_enabled(on);
}

/// Drop every buffered span (before a `/profile` window is measured).
pub fn trace_clear() {
    ftn_trace::clear();
}

/// The recorder's clock, for `/profile?since=&until=` windows.
pub fn trace_now_nanos() -> u64 {
    ftn_trace::now_nanos()
}

/// `trace.disabled_span_ns`, `trace.enabled_span_ns`: open and drop one span.
pub fn trace_span() {
    drop(ftn_trace::span("bench.probe", "bench"));
}
