//! [`ClusterMachine`] — the pool-level mirror of [`ftn_core::Machine`]: same
//! load/alloc/run surface, with host programs placed across N simulated
//! FPGAs and sessions that keep arrays resident on them.
//!
//! A sessionless call ([`ClusterMachine::run`]) runs where it is called, as
//! the paper's host binary runs on the CPU: its device state is
//! job-transient (a fresh data environment per call, freed when it returns
//! by [`ftn_core::HostProgram::run`]'s one reclaim rule), so nothing of it
//! needs a worker. The pool places it least-loaded (round-robin on ties),
//! counts it in that device's load while it runs, launches its kernels on
//! an executor for that device's model over the shared image, and folds its
//! statistics through the same completion bookkeeping worker outcomes use.
//! With one device and the same call sequence, results and statistics are
//! bit-identical to `Machine`: it is the same routine.
//!
//! Device jobs are a session's launches and the phases of its row
//! exchanges (see [`crate::sharded`]), sent straight to their shard's
//! device; the workers run what callers cannot run themselves. A session's
//! sub-buffers are device-owned from open to close, and no call names them;
//! the one ownership rule left is that **an array an open session maps is
//! refused to everyone else** — a run, another open, a free — until its
//! close has landed its rows. Every job is enqueued, then queued by `send`
//! on its device's one FIFO the moment it is planned: the one path a job
//! takes to its device. Every job wakes the worker but **the only job of a
//! one-job fan-out, alone in an idle device's queue: it is left to the
//! thread that waits for it**, which runs it off the machine lock (`wait`,
//! `PoolGate::wait_many`, a close's quiesce; see [`crate::pool`]). A later
//! message to its device wakes the worker for it, and so does its claim
//! when dropped while the job is still queued.
//!
//! A job's outcome has one way home: the cell its handle (the claim), the
//! job and its pending entry share. Its runner finishes the cell; then,
//! under the machine lock, `land` applies it — loads, the pending entry,
//! writeback, rollups — and keeps the report in the cell. A wait finishes
//! its job without the machine (runs it if it is left to its waiter, else
//! parks on the cell), then sweeps: every finished pending job lands, in
//! job order, and the wait takes the report from its own handle's cell.
//! Nothing else may take it, and a dropped handle frees its report with
//! the cell.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ftn_core::{report_from_stats, Artifacts, CompileError, HostProgram, RunReport};
use ftn_fpga::{CostModel, DeviceModel, ExecutorImage, KernelExecutor, ResourceUsage};
use ftn_host::RunStats;
use ftn_interp::{Buffer, BufferId, MemRefVal, Memory, RtValue};
use ftn_trace::MetricsRegistry;
use serde::Serialize;

use crate::pool::{
    worker_gone, DevicePool, Inbox, Job, JobCell, JobKind, JobSpec, Reporter, RowFetch, RowPatch,
    WorkerMessage,
};
use crate::rollup::{RollupBy, RollupRow, Rollups};

/// Ticket for one submitted job — the claim on its report; redeem with
/// [`ClusterMachine::wait`]. Dropping it unwaited gives the report up: a
/// session launch's failure then fails the session's next close, once.
#[must_use = "a LaunchHandle must be waited on to observe results"]
pub struct LaunchHandle {
    pub(crate) job_id: u64,
    pub(crate) cell: Arc<JobCell>,
    /// The queue of the job's device.
    pub(crate) inbox: Arc<Inbox>,
}

impl LaunchHandle {
    /// Finish the job without the machine ([`Inbox::finish`]); the caller
    /// then lands it ([`ClusterMachine::redeem`]).
    pub(crate) fn finish(&self) {
        self.inbox.finish(self.job_id, &self.cell);
    }
}

impl std::fmt::Debug for LaunchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaunchHandle {{ job_id: {} }}", self.job_id)
    }
}

impl Drop for LaunchHandle {
    fn drop(&mut self) {
        // A job still queued that nobody will wait for runs on its worker.
        if self.cell.abandon() {
            self.inbox.wake();
        }
    }
}

/// Receipt for a one-shard session launch: the handle, its device, and the
/// buffers whose host↔device transfers were skipped because they were
/// already resident.
#[derive(Debug)]
#[must_use = "wait on the contained handle to observe results"]
pub struct KernelTicket {
    /// Handle to redeem with [`ClusterMachine::wait`].
    pub handle: LaunchHandle,
    /// Device the job was placed on.
    pub device: usize,
    /// Buffers already resident (transfer skipped).
    pub elided: u64,
}

/// A completed pool run: the device that executed it plus the standard
/// [`RunReport`].
#[derive(Clone, Debug)]
pub struct ClusterRunReport {
    /// Device that executed the job.
    pub device: usize,
    /// The standard run report (stats, results, power).
    pub report: RunReport,
}

/// Per-device slice of the pool statistics.
#[derive(Clone, Debug, Serialize)]
pub struct DevicePoolStats {
    /// Device index in the pool.
    pub device: usize,
    /// Device model name.
    pub name: String,
    /// Kernel clock of this device's model — the first-order throughput
    /// signal in a heterogeneous pool.
    pub clock_mhz: f64,
    /// Jobs completed (waited) on this device.
    pub jobs: u64,
    /// Simulated seconds of device-timeline occupancy (kernel wall +
    /// transfers) across completed jobs.
    pub busy_sim_seconds: f64,
    /// Device memory arena size after the worker's last post-job reclaim
    /// of recorded transients (stays flat across jobs; a host call never
    /// touches it).
    pub arena_buffers: usize,
    /// This device's accumulated run statistics.
    pub stats: RunStats,
}

/// Pool-level statistics over all *completed* (waited) jobs.
#[derive(Clone, Debug, Serialize)]
pub struct PoolStats {
    /// Per-device breakdown, in device-index order.
    pub devices: Vec<DevicePoolStats>,
    /// Sum of per-device stats; for an N=1 pool this equals the single
    /// `Machine` run stats exactly.
    pub totals: RunStats,
    /// Jobs completed pool-wide.
    pub jobs: u64,
    /// Pool makespan on the simulated timeline: the busiest device's
    /// occupancy (devices run concurrently).
    pub makespan_sim_seconds: f64,
    /// What a single device would have needed: the sum of all occupancy.
    pub serial_sim_seconds: f64,
    /// `serial / makespan` — aggregate launch-throughput speedup over the
    /// single-device path.
    pub aggregate_speedup: f64,
    /// Per-device `busy / makespan` in [0, 1].
    pub occupancy: Vec<f64>,
    /// Buffers uploaded to a device by a session's row exchanges (a host
    /// call's transfers are its own program's, in `totals`).
    pub staged_uploads: u64,
    /// Bytes those uploads moved.
    pub staged_bytes: u64,
    /// Jobs dispatched to a device fixed by their shard assignment (a
    /// session's jobs bypass placement).
    pub shard_forced: u64,
    /// Live host buffers in pool memory (requests/sessions must free what
    /// they allocate; flat under sustained traffic).
    pub host_buffers: usize,
    /// Bytes held by live host buffers.
    pub host_bytes: u64,
}

/// Cached handles into the machine's [`MetricsRegistry`] — one atomic
/// bump per event on the completion path, no registry lookup.
pub(crate) struct PoolMetrics {
    /// Wall-clock enqueue→dispatch wait per worker job.
    pub(crate) queue_wait: Arc<ftn_trace::Histogram>,
    /// Jobs completed pool-wide.
    pub(crate) jobs: Arc<ftn_trace::Counter>,
    /// Inter-launch halo refreshes executed.
    pub(crate) halo_refreshes: Arc<ftn_trace::Counter>,
    /// Boundary-row bytes moved by halo refreshes (counted once per block).
    pub(crate) halo_bytes: Arc<ftn_trace::Counter>,
}

impl PoolMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> PoolMetrics {
        PoolMetrics {
            queue_wait: registry.histogram("ftn_pool_queue_wait_seconds"),
            jobs: registry.counter("ftn_pool_jobs_total"),
            halo_refreshes: registry.counter("ftn_pool_halo_refreshes_total"),
            halo_bytes: registry.counter("ftn_pool_halo_bytes_total"),
        }
    }
}

/// Bookkeeping for a submitted-but-unprocessed job.
pub(crate) struct PendingJob {
    /// The device the job was sent to.
    pub(crate) device: usize,
    /// Kernel name for kernel jobs — the rollup attribution key, shared
    /// with the job.
    pub(crate) kernel: Option<Arc<str>>,
    /// Session the submission ran under, if any (see
    /// [`ClusterMachine::submitting_session`]).
    pub(crate) session: Option<u64>,
    /// Bytes its patches stage host→device: its device's alone.
    pub(crate) staged_bytes: u64,
    /// The job's cell: its runner finishes it, [`ClusterMachine::land`]
    /// lands it.
    pub(crate) cell: Arc<JobCell>,
}

/// A sessionless call placed on a device, counted in its load until it
/// lands: what running it needs, with no machine borrowed.
pub(crate) struct HostCall {
    pool: Arc<str>,
    device: usize,
    program: Arc<HostProgram>,
    executor: KernelExecutor,
}

impl HostCall {
    /// Run `func` over `args` in `memory` on the caller's thread, under a
    /// `host.call` span on its lane.
    pub(crate) fn run(
        &self,
        func: &str,
        args: &[RtValue],
        memory: &mut Memory,
    ) -> Result<(RunStats, Vec<RtValue>), CompileError> {
        let mut span = ftn_trace::span("host.call", "cluster");
        span.arg("pool", &*self.pool);
        span.arg("device", self.device);
        span.arg("func", func);
        let model = &self.executor.device;
        self.program.run(func, args, memory, &self.executor, model)
    }
}

/// See module docs.
pub struct ClusterMachine {
    pub(crate) pool: DevicePool,
    /// The host program every sessionless call runs.
    program: Arc<HostProgram>,
    /// Pool host memory: every host array and shard sub-buffer lives here.
    pub memory: Memory,
    /// Every host array allocated on this machine (not a session's shard
    /// sub-buffers or an exchange's move buffers).
    pub(crate) buffers: HashSet<BufferId>,
    /// Round-robin cursor: where the next least-loaded tie-break starts.
    pub(crate) rr: usize,
    /// Per device: its jobs in flight, host calls running included.
    pub(crate) loads: Vec<u64>,
    pub(crate) kernel_resources: ResourceUsage,
    pub(crate) cost_model: CostModel,
    /// job id -> pending bookkeeping; a session's launches in flight are its
    /// entries with that `session`.
    pub(crate) pending: HashMap<u64, PendingJob>,
    pub(crate) next_job: u64,
    /// The one session table: every open session, whatever its shard count.
    pub(crate) sessions: HashMap<u64, crate::sharded::ShardedSession>,
    /// Where session ids are drawn: the machine's own counter from 1, or
    /// one shared by several pools ([`ClusterMachine::use_session_ids`]).
    pub(crate) session_ids: Arc<AtomicU64>,
    pub(crate) staged_uploads: u64,
    pub(crate) staged_bytes: u64,
    pub(crate) shard_forced: u64,
    /// Registry-backed observability handles. Standalone machines get a
    /// private registry; `ftn-serve` attaches its server-wide one via
    /// [`ClusterMachine::use_metrics`].
    pub(crate) metrics: PoolMetrics,
    /// The pool's name on job and host-call spans: empty until
    /// [`ClusterMachine::use_metrics`] names it.
    label: Arc<str>,
    /// Per-kernel/session cost attribution and the per-device ledgers,
    /// folded in where jobs complete ([`ClusterMachine::complete`]); read
    /// via [`ClusterMachine::rollups`] and [`ClusterMachine::pool_stats`].
    pub(crate) rollups: Rollups,
    /// Session id stamped onto jobs dispatched while a session launch is on
    /// the stack (set/cleared by `sharded_launch`).
    pub(crate) submitting_session: Option<u64>,
    /// Test-only fault hook: the next row-exchange gather gets one
    /// out-of-range fetch, so its job fails on the worker.
    #[cfg(test)]
    pub(crate) corrupt_next_gather: bool,
}

impl ClusterMachine {
    /// "Program N FPGAs with the same bitstream and load the host binary."
    /// The bitstream and host module are parsed once: the image is shared
    /// by every device worker and every sessionless call.
    pub fn load(artifacts: &Artifacts, devices: &[DeviceModel]) -> Result<Self, CompileError> {
        if devices.is_empty() {
            return Err(CompileError::new(
                "cluster-load",
                "device pool must contain at least one device".to_string(),
            ));
        }
        let image = ExecutorImage::from_bitstream(&artifacts.bitstream)
            .map_err(|e| CompileError::new("cluster-bitstream", e))?;
        let program = Arc::new(HostProgram::parse(&artifacts.host_module_text)?);
        let pool = DevicePool::spawn(Arc::new(image), devices);
        let n = pool.len();
        Ok(ClusterMachine {
            pool,
            program,
            memory: Memory::new(),
            buffers: HashSet::new(),
            rr: 0,
            loads: vec![0; n],
            kernel_resources: artifacts.bitstream.kernel_resources(),
            cost_model: CostModel::from_bitstream(&artifacts.bitstream),
            pending: HashMap::new(),
            next_job: 1,
            sessions: HashMap::new(),
            session_ids: Arc::new(AtomicU64::new(1)),
            staged_uploads: 0,
            staged_bytes: 0,
            shard_forced: 0,
            metrics: PoolMetrics::new(&MetricsRegistry::new()),
            label: Arc::from(""),
            rollups: Rollups::new(n),
            submitting_session: None,
            #[cfg(test)]
            corrupt_next_gather: false,
        })
    }

    /// Re-point this machine's observability at `registry` (the server-wide
    /// registry when the pool backs `ftn-serve`), and name the pool `pool`
    /// on its job and host-call spans, so device utilization tells its
    /// devices from another pool's. Prior observations stay in the old
    /// registry; only new events land in `registry`. Call it before the
    /// first open or run.
    pub fn use_metrics(&mut self, registry: &Arc<MetricsRegistry>, pool: &str) {
        self.metrics = PoolMetrics::new(registry);
        self.label = Arc::from(pool);
        for slot in &self.pool.slots {
            slot.inbox.label(&self.label);
        }
    }

    /// Draw this machine's session ids from `ids` (the server-wide source
    /// when the pool backs `ftn-serve`), so several pools never hand out one
    /// id twice and a session is named by the same number everywhere. Call
    /// it before the first open.
    pub fn use_session_ids(&mut self, ids: &Arc<AtomicU64>) {
        self.session_ids = Arc::clone(ids);
    }

    /// Attribution rollups over every job completed so far, costliest first
    /// (by simulated cycles). `by` picks the axis: kernel name, submitting
    /// session id, or device index — the table behind `GET /profile/top`.
    pub fn rollups(&self, by: RollupBy) -> Vec<RollupRow> {
        self.rollups.rows(by)
    }

    /// Current per-device queue depth (jobs submitted and not yet
    /// completed, host calls still running included), in device-index
    /// order — the `/stats` and `ftn_pool_queue_depth` gauge source.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.loads.clone()
    }

    /// Number of devices in the pool.
    pub fn device_count(&self) -> usize {
        self.pool.len()
    }

    /// Per-device worker-thread liveness, in device-index order — the
    /// `/healthz` readiness signal.
    pub fn devices_alive(&self) -> Vec<bool> {
        self.pool.alive()
    }

    /// The device models backing the pool, in device-index order.
    pub fn device_models(&self) -> Vec<DeviceModel> {
        self.pool.models()
    }

    /// Allocate a host f32 array (mirror of `Machine::host_f32`).
    pub fn host_f32(&mut self, data: &[f32]) -> RtValue {
        self.host_array(Buffer::F32(data.to_vec()))
    }

    /// Allocate a host i32 array.
    pub fn host_i32(&mut self, data: &[i32]) -> RtValue {
        self.host_array(Buffer::I32(data.to_vec()))
    }

    /// Make `contents` a rank-1 host array: it is moved in, not copied.
    pub fn host_array(&mut self, contents: Buffer) -> RtValue {
        let shape = vec![contents.len() as i64];
        let buffer = self.memory.alloc(contents, 0);
        self.buffers.insert(buffer);
        RtValue::MemRef(MemRefVal {
            buffer,
            shape,
            space: 0,
        })
    }

    /// Read back a host f32 array. A session's updates are reflected once
    /// it is closed.
    pub fn read_f32(&self, v: &RtValue) -> Vec<f32> {
        let m = v.as_memref().expect("memref value");
        match self.memory.get(m.buffer) {
            Buffer::F32(data) => data.clone(),
            other => panic!("expected f32 buffer, got {}", other.type_name()),
        }
    }

    /// Plan one shard's kernel launch for the shard's `device` (no
    /// placement; see [`crate::sharded`]). Its buffers are the shard's
    /// mirrors, resident there since the open: each is an elided transfer
    /// and nothing is staged. Writeback is deferred: the device copy stays
    /// authoritative until the session's close fetch. The job takes the
    /// halo patches riding on `session`'s next job to `device`
    /// ([`ClusterMachine::ride`]). Returns the job and its elided transfers.
    pub(crate) fn plan_kernel(
        &mut self,
        kernel: &Arc<str>,
        args: Vec<RtValue>,
        device: usize,
        session: u64,
    ) -> (Job, u64) {
        self.shard_forced += 1;
        let elided = distinct_memref_buffers(&args).len() as u64;
        let kind = JobKind::Kernel {
            kernel: Arc::clone(kernel),
        };
        let spec = JobSpec {
            args,
            patches: self.ride(session, device),
            ..JobSpec::new(kind)
        };
        (self.enqueue(device, spec), elided)
    }

    /// Plan a download of the element ranges in `rows` from `device`'s
    /// mirrors into host memory, charging device→host transfer time per
    /// range, after writing the halo patches riding on `session`'s next job
    /// there ([`ClusterMachine::ride`]). Every `dst` must be allocated
    /// before the call and is fully overwritten by the writeback.
    pub(crate) fn plan_fetch(&mut self, device: usize, rows: Vec<RowFetch>, session: u64) -> Job {
        let spec = JobSpec {
            fetch_rows: rows,
            patches: self.ride(session, device),
            ..JobSpec::new(JobKind::Fetch)
        };
        self.enqueue(device, spec)
    }

    /// Plan an open's staging on `device`: create the shard sub-buffer
    /// mirrors `patches` name — uploaded rows charged as staging, seeds
    /// free. The host copy, like any session sub-buffer's, is stale until
    /// the close fetch.
    pub(crate) fn plan_row_patch(&mut self, device: usize, patches: Vec<RowPatch>) -> Job {
        let spec = JobSpec {
            patches,
            ..JobSpec::new(JobKind::RowPatch)
        };
        self.enqueue(device, spec)
    }

    /// The halo patches riding on `session`'s next job to `device`, taken
    /// by the job being planned: the first one a launch, a refresh's gather
    /// or a close sends there (see [`crate::exchange`]).
    pub(crate) fn ride(&mut self, session: u64, device: usize) -> Vec<RowPatch> {
        let s = self.sessions.get_mut(&session);
        s.and_then(|s| s.riding.remove(&device)).unwrap_or_default()
    }

    /// Refuse the host arrays `ids` to the caller — a run, an open or a
    /// free — when an open session maps one: its current contents are on
    /// the session's sub-buffers, and the close would overwrite whatever the
    /// caller did.
    pub(crate) fn refuse_mapped(&self, ids: &[BufferId]) -> Result<(), CompileError> {
        let mapping = (self.sessions.iter())
            .filter(|(_, s)| ids.iter().any(|&id| s.uses_buffer(id)))
            .map(|(&sid, _)| sid);
        if let Some(sid) = mapping.min() {
            return Err(CompileError::new(
                "cluster-session",
                format!("array is mapped by open session {sid}; close it or launch through it"),
            ));
        }
        Ok(())
    }

    /// One of `session`'s launches in flight — the job a close waits for —
    /// as the call that finishes it without the machine, as its claim would
    /// ([`Inbox::finish`]; the caller then sweeps it home), or `None` once
    /// none is.
    pub(crate) fn blocker(&self, session: u64) -> Option<impl FnOnce()> {
        let mut jobs = self.pending.iter();
        let (&job_id, p) = jobs.find(|(_, p)| p.session == Some(session))?;
        let (inbox, cell) = (
            Arc::clone(&self.pool.slots[p.device].inbox),
            Arc::clone(&p.cell),
        );
        Some(move || inbox.finish(job_id, &cell))
    }

    /// Least-loaded placement: the shallowest queue, ties broken
    /// round-robin so bursts spread across the pool.
    pub(crate) fn least_loaded(&mut self) -> usize {
        let n = self.loads.len();
        let min_load = *self.loads.iter().min().expect("non-empty");
        let device = (0..n)
            .map(|i| (self.rr + i) % n)
            .find(|&d| self.loads[d] == min_load)
            .expect("some device has the min load");
        self.rr = (device + 1) % n;
        device
    }

    /// Free a host array: release its pool-memory slot. No device keeps a
    /// copy of a host array (a host call's device copies are freed when it
    /// returns), so sustained allocate-run-free traffic keeps both host and
    /// device arenas flat. Refused while an open session maps the array.
    pub fn free_host(&mut self, v: &RtValue) -> Result<(), CompileError> {
        let m = v
            .as_memref()
            .map_err(|e| CompileError::new("cluster-free", e.to_string()))?;
        let id = m.buffer;
        if !self.buffers.contains(&id) {
            return Err(CompileError::new(
                "cluster-free",
                format!("buffer {id:?} is not allocated on this machine"),
            ));
        }
        self.refuse_mapped(&[id])?;
        self.buffers.remove(&id);
        self.memory.free(id);
        Ok(())
    }

    /// Release session sub-buffers: free their pool-memory slots and tell
    /// every device to drop its mirror of them. Message order (FIFO per
    /// device, whoever runs the message) guarantees the eviction happens
    /// after any job sent before it that still reads the mirror.
    pub(crate) fn drop_buffers(&mut self, ids: Vec<BufferId>) {
        for id in &ids {
            self.memory.free(*id);
        }
        for slot in &self.pool.slots {
            let _ = slot.inbox.send(WorkerMessage::Evict(ids.clone()), true);
        }
    }

    /// Enter a fully-prepared job for `device` into the pending ledger and
    /// the device's queue depth; [`ClusterMachine::send`] delivers it.
    fn enqueue(&mut self, device: usize, spec: JobSpec) -> Job {
        let job_id = self.next_job;
        self.next_job += 1;
        let kernel = match &spec.kind {
            JobKind::Kernel { kernel } => Some(Arc::clone(kernel)),
            _ => None,
        };
        // Patch blocks of host contents are host→device uploads; counting
        // them here puts exchange bytes on the device's `/profile/top` row.
        let staged_bytes = (spec.patches.iter().flat_map(RowPatch::uploads)).sum::<usize>() as u64;
        let session = self.submitting_session.and_then(|s| self.sessions.get(&s));
        let sink = session.map(|s| Arc::clone(&s.failures));
        let cell = self.pool.cell(sink);
        let job = Job {
            job_id,
            // Stamp the submitting request's trace context and the enqueue
            // time; the worker continues the trace on its own lane and
            // reports the measured queue wait back with the outcome.
            trace_id: ftn_trace::current_trace_id(),
            parent_span: ftn_trace::current_span_id(),
            enqueued_nanos: ftn_trace::now_nanos(),
            spread: false,
            spec,
            reporter: Reporter::new(device, Arc::clone(&cell)),
        };
        self.loads[device] += 1;
        self.pending.insert(
            job_id,
            PendingJob {
                device,
                kernel,
                session: self.submitting_session,
                staged_bytes,
                cell,
            },
        );
        job
    }

    /// Queue an enqueued job on `device` as one `WorkerMessage::Job` — the
    /// one send path every job takes — and hand out its claim; `wake` as
    /// [`Inbox::send`] takes it. A job a gone worker refuses finishes its
    /// own cell as it drops, and lands here: no claim goes out to land it.
    fn send(&mut self, device: usize, job: Job, wake: bool) -> Result<LaunchHandle, CompileError> {
        let job_id = job.job_id;
        let cell = Arc::clone(&self.pending[&job_id].cell);
        let inbox = Arc::clone(&self.pool.slots[device].inbox);
        if let Err(gone) = inbox.send(WorkerMessage::Job(Box::new(job)), wake) {
            self.land(job_id);
            return Err(CompileError::new("cluster-submit", gone));
        }
        Ok(LaunchHandle {
            job_id,
            cell,
            inbox,
        })
    }

    /// One fan-out: for every `(device, payload)` item in order, `plan` a
    /// job and send it on its own. Every job wakes its worker but the only
    /// job of a one-job fan-out, left to its waiter (see [`crate::pool`]).
    /// When the items go to more
    /// than one device and the pool has a CPU per worker, each job carries
    /// the spread flag (see [`Job::spread`]). Stops at the first job that
    /// cannot be sent and returns the claims of the jobs delivered plus
    /// that error: an exchange waits every claim before it releases the
    /// buffers they touch, a launch drops them (see
    /// [`ClusterMachine::sharded_launch`]).
    pub(crate) fn fan_out<T>(
        &mut self,
        items: Vec<(usize, T)>,
        mut plan: impl FnMut(&mut Self, usize, T) -> Job,
    ) -> (Vec<LaunchHandle>, Option<CompileError>) {
        let first = items.first().map(|&(device, _)| device);
        let spread = self.pool.cpu_each && items.iter().any(|&(d, _)| Some(d) != first);
        let wake = items.len() > 1;
        let mut handles = Vec::with_capacity(items.len());
        for (device, item) in items {
            let mut job = plan(self, device, item);
            job.spread = spread;
            match self.send(device, job, wake) {
                Ok(h) => handles.push(h),
                Err(e) => return (handles, Some(e)),
            }
        }
        (handles, None)
    }

    /// Wait for a submitted job: its report, its statistics folded into the
    /// pool totals and a fetch's rows written back to host memory.
    ///
    /// The handle finishes its job, then the claim is landed. A job left to
    /// its waiter runs here, on the calling thread, under this wait's
    /// `session.wait` span — the span [`crate::PoolGate::wait_many`] opens.
    pub fn wait(&mut self, handle: LaunchHandle) -> Result<ClusterRunReport, CompileError> {
        let _span = ftn_trace::span("session.wait", "cluster");
        self.finish_and_redeem(handle)
    }

    /// [`ClusterMachine::wait`] without its span, for a caller that has one
    /// open already: finish the job, then land it.
    pub(crate) fn finish_and_redeem(
        &mut self,
        handle: LaunchHandle,
    ) -> Result<ClusterRunReport, CompileError> {
        handle.finish();
        self.redeem(handle)
    }

    /// Land a claim whose job is finished: a sweep lands it with every
    /// other finished job, and the report is read from the handle's own
    /// cell — where it already is when another call landed it (a close,
    /// another wait).
    pub(crate) fn redeem(
        &mut self,
        handle: LaunchHandle,
    ) -> Result<ClusterRunReport, CompileError> {
        self.sweep();
        let report = handle.cell.take().expect("landed by the sweep");
        let (device, success) = report.map_err(|msg| CompileError::new("cluster-run", msg))?;
        Ok(ClusterRunReport {
            device,
            report: report_from_stats(success.stats, success.results, &self.kernel_resources),
        })
    }

    /// Run host function `func` over `args` to completion on the calling
    /// thread, mirroring `Machine::run` (see the module docs). An array an
    /// open session maps is refused: its current contents are on the
    /// session's sub-buffers, and the close would overwrite the result.
    pub fn run(&mut self, func: &str, args: &[RtValue]) -> Result<ClusterRunReport, CompileError> {
        self.refuse_mapped(&distinct_memref_buffers(args))?;
        let call = self.place_call()?;
        let outcome = call.run(func, args, &mut self.memory);
        self.land_call(call, outcome)
    }

    /// Place a sessionless call: least-loaded, round-robin on ties, and
    /// counted in that device's load until [`ClusterMachine::land_call`].
    /// A call placed on a dead worker's device fails here, as a job sent
    /// there does.
    pub(crate) fn place_call(&mut self) -> Result<HostCall, CompileError> {
        let device = self.least_loaded();
        if !self.pool.is_alive(device) {
            return Err(CompileError::new("cluster-submit", worker_gone(device)));
        }
        self.loads[device] += 1;
        Ok(HostCall {
            pool: Arc::clone(&self.label),
            device,
            program: Arc::clone(&self.program),
            executor: self.pool.executor(device),
        })
    }

    /// Land a placed call: its device's load drops, and a completed run is
    /// folded through [`ClusterMachine::complete`] — no queue wait, no
    /// staged bytes, no kernel or session row.
    pub(crate) fn land_call(
        &mut self,
        call: HostCall,
        outcome: Result<(RunStats, Vec<RtValue>), CompileError>,
    ) -> Result<ClusterRunReport, CompileError> {
        self.loads[call.device] -= 1;
        let (stats, results) =
            outcome.map_err(|e| CompileError::new("cluster-run", e.to_string()))?;
        self.complete(None, call.device, &stats, 0.0, 0);
        Ok(ClusterRunReport {
            device: call.device,
            report: report_from_stats(stats, results, &self.kernel_resources),
        })
    }

    /// Block until none of session `session`'s launches is in flight: each
    /// one finished and landed, its report in its claim's cell (no wait at
    /// all after `PoolGate`'s off-lock quiesce). A launch left to its waiter
    /// runs here.
    pub(crate) fn quiesce(&mut self, session: u64) {
        while let Some(finish) = self.blocker(session) {
            finish();
            self.sweep();
        }
    }

    /// Land every pending job whose cell is finished, lowest job id first:
    /// a device runs its jobs in job order, so its ledger folds them in
    /// that order however the devices' finishes interleave.
    pub(crate) fn sweep(&mut self) {
        let finished = |(&job_id, p): (&u64, &PendingJob)| p.cell.finished().then_some(job_id);
        while let Some(job_id) = self.pending.iter().filter_map(finished).min() {
            self.land(job_id);
        }
    }

    /// Land pending job `job_id`, whose cell is finished — the one step
    /// that applies an outcome: the device's load drops, a fetch's rows are
    /// written over their host buffers, the patches' cost is folded into
    /// the device's ledger and the run through
    /// [`ClusterMachine::complete`], and the report is kept in the cell.
    pub(crate) fn land(&mut self, job_id: u64) {
        let p = self.pending.remove(&job_id).expect("job is pending");
        let device = p.device;
        self.loads[device] = self.loads[device].saturating_sub(1);
        p.cell.land(|outcome| {
            outcome.map(|mut success| {
                let mut writeback_bytes = 0u64;
                // Each fetched block lands in a buffer only its exchange reads.
                for (host_id, contents) in std::mem::take(&mut success.writeback) {
                    writeback_bytes += contents.byte_len() as u64;
                    *self.memory.get_mut(host_id) = contents;
                }
                self.rollups.devices[device].arena_buffers = success.arena_buffers;
                self.metrics.queue_wait.observe(success.queue_wait_seconds);
                self.rollups.carry(device, &success.patched, p.staged_bytes);
                let wait = success.queue_wait_seconds;
                self.complete(Some(&p), device, &success.stats, wait, writeback_bytes);
                (device, success)
            })
        });
    }

    /// The one completion bookkeeping, for a worker job's outcome and a host
    /// call alike: the device's ledger (jobs, stats, busy simulated time),
    /// the kernel and session rows the job names, and
    /// `ftn_pool_jobs_total`.
    fn complete(
        &mut self,
        job: Option<&PendingJob>,
        device: usize,
        stats: &RunStats,
        wait: f64,
        bytes: u64,
    ) {
        let keys = job.map_or((None, None), |p| (p.kernel.as_deref(), p.session));
        self.rollups.record(keys, device, stats, wait, bytes);
        self.metrics.jobs.inc();
    }

    /// Pool statistics over completed jobs, read from the per-device
    /// ledgers.
    pub fn pool_stats(&self) -> PoolStats {
        let ledgers = self.pool.slots.iter().zip(&self.rollups.devices);
        let devices: Vec<DevicePoolStats> = (ledgers.enumerate())
            .map(|(i, (slot, d))| DevicePoolStats {
                device: i,
                name: slot.model.name.clone(),
                clock_mhz: slot.model.clock_mhz,
                jobs: d.row.jobs,
                busy_sim_seconds: d.row.sim_seconds,
                arena_buffers: d.arena_buffers,
                stats: d.stats.clone(),
            })
            .collect();
        let mut totals = RunStats::default();
        for d in &devices {
            totals.merge(&d.stats);
        }
        let busy = || devices.iter().map(|d| d.busy_sim_seconds);
        let serial: f64 = busy().sum();
        let makespan = busy().fold(0.0f64, f64::max);
        PoolStats {
            jobs: devices.iter().map(|d| d.jobs).sum(),
            occupancy: busy()
                .map(|b| if makespan > 0.0 { b / makespan } else { 0.0 })
                .collect(),
            totals,
            makespan_sim_seconds: makespan,
            serial_sim_seconds: serial,
            aggregate_speedup: if makespan > 0.0 {
                serial / makespan
            } else {
                1.0
            },
            staged_uploads: self.staged_uploads,
            staged_bytes: self.staged_bytes,
            shard_forced: self.shard_forced,
            host_buffers: self.memory.live(),
            host_bytes: self.memory.live_bytes(),
            devices,
        }
    }
}

/// Distinct buffer ids among memref arguments, in first-appearance order.
pub(crate) fn distinct_memref_buffers(args: &[RtValue]) -> Vec<BufferId> {
    let mut out: Vec<BufferId> = Vec::new();
    for a in args {
        if let RtValue::MemRef(m) = a {
            if !out.contains(&m.buffer) {
                out.push(m.buffer);
            }
        }
    }
    out
}

#[cfg(test)]
#[test]
fn least_loaded_spreads_round_robin() {
    let mut m = crate::tests::pool(4);
    let mut picked = Vec::new();
    for _ in 0..8 {
        let d = m.least_loaded();
        m.loads[d] += 1;
        picked.push(d);
    }
    assert_eq!(picked, vec![0, 1, 2, 3, 0, 1, 2, 3]);
}
