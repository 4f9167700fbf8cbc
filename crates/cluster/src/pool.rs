//! The device pool: one persistent worker thread per simulated FPGA, each
//! device owning its executor (bound to a shared parsed bitstream image),
//! its own device-side [`Memory`] and mirror table, and one FIFO queue of
//! messages, its `Inbox`. Workers are reused across launches — no thread
//! is ever spawned per kernel launch.
//!
//! A message is queued, running or done; there is no fourth place. A
//! non-`nowait` target region runs on the thread that reaches it and that
//! thread waits for it; so every message wakes the worker but one: the
//! only job of a one-job fan-out, alone in an idle device's queue, is left
//! to its waiter, who runs it off the machine lock with the same
//! `run_and_report` the worker uses (`Inbox::finish`); any other waiter
//! parks on its job's cell. A later message to that device wakes the
//! worker, which takes the head in order, and so does a claim dropped while
//! its job is still queued. The jobs of a fan-out over several devices are
//! all their workers', so they run at the same time. A sessionless host
//! program never comes here: it runs where it is called
//! (`ClusterMachine::run`), and only its placement and accounting go
//! through the pool.
//! * `JobKind::Kernel` — execute one device kernel directly against the
//!   device's resident shard mirrors (`target data` sessions launch these;
//!   nothing is staged, and nothing is written back until the session's
//!   close fetch).
//! * `JobKind::Fetch` — copy element ranges of mirrors back to the host,
//!   charging PCIe time the way a data-region exit does (the gather half:
//!   a close's sub-buffers, a refresh's cross-device blocks).
//! * `JobKind::RowPatch` — create shard mirrors from their rows (an open's
//!   staging, charged the way a data-region entry is; see `RowPatch`).
//!
//! Any job may write row patches into mirrors before its own work
//! (`JobSpec::patches`): an open's staging, or a halo refresh's patches
//! riding on the session's next job to the device. Their cost comes home
//! apart from the job's own (`JobSuccess::patched`).
//!
//! A device runs its messages one at a time, in the order they were sent,
//! wherever they run: a runner takes the head only while the device is
//! idle — nothing taken is unfinished, a test `Stall` included — a waiter
//! only while the worker was not woken, and each takes the device state
//! before it lets go of the queue.
//!
//! Every job carries its `JobCell`, the one place its outcome comes home
//! to, shared with the caller's claim and the machine's pending entry, and
//! a `Reporter`, its promise to finish that cell exactly once. A runner
//! — the worker or a waiter, both through `run_and_report` — finishes the
//! cell with the job's outcome once the device counts as idle again,
//! waking whoever parks on it: its claim, or a `PoolGate` close that waits
//! for its session's launches. A job dropped unrun (its worker exited and
//! drained its queue, or the send was refused) finishes its own cell as it
//! goes, with its device's worker gone, so no wait outlives its job. The
//! machine then lands the finished cell under its lock (see
//! `ClusterMachine::land`).
//!
//! After each job the runner frees every allocation the job recorded, so
//! kernel-local scratch does not accumulate across the life of the pool.
//! The only persistent device buffers are session sub-buffer mirrors,
//! created by a `RowPatch` and kept until the session releases the
//! sub-buffer with a `WorkerMessage::Evict`.

use std::collections::{HashMap, VecDeque};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(test)]
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ftn_fpga::{DeviceModel, ExecutorImage, KernelExecutor};
use ftn_host::RunStats;
use ftn_interp::{Buffer, BufferId, Memory, RtValue};

/// What a job asks the worker to execute.
pub(crate) enum JobKind {
    /// Execute device kernel `kernel` against resident buffers. The mirror
    /// stays authoritative; the session fetches once at close. The name is
    /// shared with the machine's pending entry and the launch's other
    /// shards.
    Kernel { kernel: Arc<str> },
    /// Download the job's `fetch_rows` slices from the mirror (the gather
    /// half of a row exchange; a session close's is its whole traffic).
    Fetch,
    /// Create shard sub-buffer mirrors from the job's `patches` (a session
    /// open's staging).
    RowPatch,
}

/// The worker-lane span name for a job kind (see docs/OBSERVABILITY.md).
pub(crate) fn kind_label(kind: &JobKind) -> &'static str {
    match kind {
        JobKind::Kernel { .. } => "job.kernel",
        JobKind::Fetch => "job.fetch",
        JobKind::RowPatch => "job.upload",
    }
}

/// One element-range download: read `src[start .. start+len]` from the
/// device mirror and write it back over the host buffer `dst`. A row
/// exchange's gather fetches only the blocks that cross devices, each into
/// a dedicated move buffer; a close fetch is the whole range with
/// `dst == src`. Either way `dst` is device-owned: only the exchange reads
/// the rows that land in it.
pub(crate) struct RowFetch {
    /// Host id of the buffer whose mirror donates the elements.
    pub src: BufferId,
    /// Host id of the buffer receiving them (whole-buffer writeback).
    pub dst: BufferId,
    /// First element of the slice within the mirror.
    pub start: usize,
    /// Elements in the slice.
    pub len: usize,
}

/// Write row blocks into one shard sub-buffer's device mirror. A halo
/// refresh patches the resident mirror in place (only ghost rows change); a
/// session open's sub-buffer has no mirror yet, so `create` starts one. The
/// mirror a block reads from is never one the same exchange writes.
pub(crate) struct RowPatch {
    /// Host id of the sub-buffer whose mirror is written.
    pub target: BufferId,
    /// `Some`: `target` has no mirror yet — it starts as this buffer instead
    /// of a resident one being patched.
    pub create: Option<Create>,
    /// The blocks to write.
    pub blocks: Vec<PatchBlock>,
}

/// What a mirror a [`RowPatch`] creates starts as.
pub(crate) enum Create {
    /// Device-initialized, nothing crosses PCIe: zeros (a `map(from:)` copy)
    /// or a reduction copy's identity.
    Seed(Buffer),
    /// The rows a session open cut from the caller's array, charged as one
    /// host→device transfer and moved into the arena, never copied.
    Upload(Buffer),
}

/// One block of a [`RowPatch`], by transport.
pub(crate) enum PatchBlock {
    /// The rows arrive as host contents, charged as a host→device transfer:
    /// donated by another device's mirror and landed in a move buffer by
    /// the gather.
    Host { dst: usize, contents: Buffer },
    /// The donor's mirror is resident on this device: `len` elements copy
    /// mirror-to-mirror from `donor[src..]` (free — nothing crosses PCIe).
    Local {
        dst: usize,
        donor: BufferId,
        src: usize,
        len: usize,
    },
}

impl RowPatch {
    /// Byte length of every piece of host contents the patch uploads.
    pub(crate) fn uploads(&self) -> impl Iterator<Item = usize> + '_ {
        let created = match &self.create {
            Some(Create::Upload(rows)) => Some(rows.byte_len()),
            _ => None,
        };
        let blocks = self.blocks.iter().filter_map(|block| match block {
            PatchBlock::Host { contents, .. } => Some(contents.byte_len()),
            PatchBlock::Local { .. } => None,
        });
        created.into_iter().chain(blocks)
    }
}

/// What a job asks of its worker — everything but the identity and trace
/// context [`Job`] adds at dispatch.
pub(crate) struct JobSpec {
    pub kind: JobKind,
    /// Arguments; memrefs reference *host* buffer ids of resident mirrors
    /// and are remapped to the worker's local memory before execution.
    pub args: Vec<RtValue>,
    /// For `JobKind::Fetch`: the element ranges to download.
    pub fetch_rows: Vec<RowFetch>,
    /// Mirror patches to apply before anything else the job does: an
    /// open's, or a halo refresh's riding on this job (see
    /// `crate::exchange`).
    pub patches: Vec<RowPatch>,
}

impl JobSpec {
    pub(crate) fn new(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            args: Vec::new(),
            fetch_rows: Vec::new(),
            patches: Vec::new(),
        }
    }
}

/// A unit of work for a device worker.
pub(crate) struct Job {
    pub job_id: u64,
    /// Trace id of the request that submitted the job (0 = none); worker
    /// spans carry it so a request can be followed across device lanes.
    pub trace_id: u64,
    /// Span id of the submitting operation — the worker-side job span links
    /// to it as its parent across the thread boundary. An inline runner
    /// re-links the job to the span open on its own thread, which encloses
    /// it.
    pub parent_span: u64,
    /// Wall-clock submission time ([`ftn_trace::now_nanos`]); the runner
    /// derives the job's queue wait from it at dispatch.
    pub enqueued_nanos: u64,
    /// Whether the job's fan-out reaches more than one device on a pool with
    /// a CPU per worker: the worker then runs it on its own CPU (see
    /// [`affinity`]).
    pub spread: bool,
    pub spec: JobSpec,
    /// Finishes the job's cell: with its outcome once it has run, or, if it
    /// is dropped unrun, with its worker gone.
    pub reporter: Reporter,
}

/// What a job's runner writes into its cell when the job finishes.
pub(crate) type JobOutcome = Result<JobSuccess, String>;

pub(crate) struct JobSuccess {
    pub stats: RunStats,
    pub results: Vec<RtValue>,
    /// A fetch's rows, written over their host buffers when the outcome is
    /// processed.
    pub writeback: Vec<(BufferId, Buffer)>,
    /// Live device-memory buffers after the post-job transient reclaim
    /// (regression signal for unbounded growth in long-lived pools).
    pub arena_buffers: usize,
    /// Wall-clock seconds the job sat in the worker's queue between
    /// submission and dispatch (PR 5's open load-path observation, now
    /// measured in seconds rather than inferred from cost-model cycles).
    pub queue_wait_seconds: f64,
    /// What the patches cost, kept out of `stats`: a launch's report shows
    /// its kernel's own traffic, its device's ledger both.
    pub patched: RunStats,
}

pub(crate) enum WorkerMessage {
    Job(Box<Job>),
    /// Drop the mirror entries for these session sub-buffers and free their
    /// local copies (the host sub-buffer was freed). FIFO-ordered with jobs,
    /// so an eviction never races a queued job that still uses the mirror.
    Evict(Vec<BufferId>),
    Shutdown,
    /// Test-only fault hook: the worker blocks until the sender is dropped
    /// or sends, everything queued behind the message waiting with it.
    #[cfg(test)]
    Stall(Receiver<()>),
}

/// A job's outcome once the machine has landed it: the device and what the
/// runner returned, or the error message.
pub(crate) type Report = Result<(usize, JobSuccess), String>;

/// Where a session launch's failure goes when no claim is left to take it:
/// the session's next close fails with it, once. Keeps the first.
pub(crate) type FailureSink = Arc<Mutex<Option<String>>>;

/// The one way home for a job's outcome. Three parties hold the cell: the
/// claim (`LaunchHandle`), the [`Job`] (through its [`Reporter`]) and the
/// machine's pending entry; it goes with the last holder.
///
/// * **Runner side** — the runner finishes the cell with the job's
///   outcome and wakes whoever parks on it: a targeted wakeup, so N
///   concurrent waiters cost one wake per outcome instead of an N-thread
///   herd racing for the machine lock.
/// * **Machine side** — under the machine lock, the caller that waits for
///   the job, or a sweep of the pending jobs, lands the finished outcome:
///   the machine's bookkeeping is applied and the report is kept here.
/// * **Claim side** — a wait runs its job if it is at the head of its idle
///   device's queue, else parks on the cell until it is finished, then
///   lands it and takes the report.
///   A park after the finish returns at once, and a report another caller
///   already landed is found here. A `PoolGate` close blocked by the job
///   parks here too, through the pending entry.
///
/// A claim dropped unwaited abandons its cell: the report is dropped, and a
/// failure is handed to the session's [`FailureSink`] by whichever of the
/// drop and the landing comes second.
pub(crate) struct JobCell {
    state: Mutex<CellState>,
    cv: Condvar,
    /// The submitting session's sink; `None` for every other job.
    sink: Option<FailureSink>,
    /// The pool's count of live cells, decremented when this one drops.
    #[cfg(test)]
    live: Arc<AtomicUsize>,
}

#[derive(Default)]
struct CellState {
    stage: Stage,
    /// The claim is gone.
    abandoned: bool,
}

/// How far a job's outcome has come.
#[derive(Default)]
enum Stage {
    /// Queued or running.
    #[default]
    Running,
    /// Its runner's outcome, until the machine lands it.
    Finished(JobOutcome),
    /// Landed: the report, until the claim takes it.
    Landed(Option<Report>),
}

impl JobCell {
    fn state(&self) -> MutexGuard<'_, CellState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runner side, through the job's [`Reporter`]: the job is over; wake
    /// whoever parks on the cell.
    fn finish(&self, outcome: JobOutcome) {
        let mut st = self.state();
        debug_assert!(matches!(st.stage, Stage::Running), "a job finishes once");
        st.stage = Stage::Finished(outcome);
        self.cv.notify_all();
    }

    /// Park until the job is finished; at once if it already is.
    pub(crate) fn park(&self) {
        let st = self.state();
        let running = |st: &mut CellState| matches!(st.stage, Stage::Running);
        drop((self.cv.wait_while(st, running)).unwrap_or_else(|e| e.into_inner()));
    }

    /// Whether the job is finished and not yet landed.
    pub(crate) fn finished(&self) -> bool {
        matches!(self.state().stage, Stage::Finished(_))
    }

    /// Machine side: land the finished outcome, which `apply` turns into
    /// the report, and keep the report for the claim — or, when the claim
    /// is gone, hand a failure to the sink.
    pub(crate) fn land(&self, apply: impl FnOnce(JobOutcome) -> Report) {
        let mut st = self.state();
        let Stage::Finished(outcome) = std::mem::replace(&mut st.stage, Stage::Landed(None)) else {
            unreachable!("only a finished job lands");
        };
        let report = apply(outcome);
        if st.abandoned {
            self.sink_failure(report);
        } else {
            st.stage = Stage::Landed(Some(report));
        }
    }

    /// Take the landed report, if it is here.
    pub(crate) fn take(&self) -> Option<Report> {
        match &mut self.state().stage {
            Stage::Landed(report) => report.take(),
            _ => None,
        }
    }

    /// Claim side: the claim is gone, whether or not it took the report.
    /// Returns whether the job has still to finish.
    pub(crate) fn abandon(&self) -> bool {
        let mut st = self.state();
        st.abandoned = true;
        if let Stage::Landed(report) = &mut st.stage {
            if let Some(report) = report.take() {
                self.sink_failure(report);
            }
        }
        matches!(st.stage, Stage::Running)
    }

    fn sink_failure(&self, report: Report) {
        if let (Err(msg), Some(sink)) = (report, &self.sink) {
            let mut first = sink.lock().unwrap_or_else(|e| e.into_inner());
            first.get_or_insert(msg);
        }
    }
}

/// A job's promise to finish its cell exactly once, carried by the job:
/// its runner keeps it with [`Reporter::finish`], and a job dropped unrun
/// keeps it as it goes, with its device's worker gone.
pub(crate) struct Reporter {
    device: usize,
    /// `None` once finished.
    cell: Option<Arc<JobCell>>,
}

impl Reporter {
    pub(crate) fn new(device: usize, cell: Arc<JobCell>) -> Reporter {
        Reporter {
            device,
            cell: Some(cell),
        }
    }

    /// Finish the cell with the job's outcome.
    pub(crate) fn finish(mut self, outcome: JobOutcome) {
        if let Some(cell) = self.cell.take() {
            cell.finish(outcome);
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.finish(Err(worker_gone(self.device)));
        }
    }
}

/// The error of a job, a send or a call that meets a device whose worker
/// has exited.
pub(crate) fn worker_gone(device: usize) -> String {
    format!("device {device} worker is gone")
}

#[cfg(test)]
impl Drop for JobCell {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Host-side handle to one pool device.
pub(crate) struct DeviceSlot {
    pub model: DeviceModel,
    /// The one way into the device.
    pub inbox: Arc<Inbox>,
    pub thread: Option<JoinHandle<()>>,
}

/// The one way into a device: its queue, and the device state every
/// message runs against, wherever it runs (see the module docs).
pub(crate) struct Inbox {
    device: usize,
    queue: Mutex<Queue>,
    /// Where the worker sleeps until it is awake and the device idle.
    alarm: Condvar,
    /// Device-local state, held by whoever runs a message: the worker, or a
    /// waiter running its own job.
    worker: Mutex<Worker>,
}

#[derive(Default)]
struct Queue {
    /// Messages sent and not yet taken, oldest first.
    messages: VecDeque<WorkerMessage>,
    /// A message was taken and is not finished: the device is idle only
    /// while this is false.
    running: bool,
    /// The worker was woken for what is queued: it takes the head whenever
    /// the device is idle, until the queue is empty. While it is not, the
    /// one message a queue can hold is a job left to its waiter.
    awake: bool,
    /// The worker has exited: every send is refused.
    gone: bool,
}

impl Inbox {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker(&self) -> MutexGuard<'_, Worker> {
        self.worker.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Name the pool the device belongs to on its job spans.
    pub(crate) fn label(&self, pool: &Arc<str>) {
        self.worker().pool = Arc::clone(pool);
    }

    /// Test-only: hold the device state, so a message taken to run waits
    /// here.
    #[cfg(test)]
    pub(crate) fn hold(&self) -> MutexGuard<'_, Worker> {
        self.worker()
    }

    /// Test-only: whether job `job_id` is still left to its waiter at the
    /// head of its idle device's queue.
    #[cfg(test)]
    pub(crate) fn at_head(&self, job_id: u64) -> bool {
        let q = self.queue();
        let head = q.messages.front();
        let mine = matches!(head, Some(WorkerMessage::Job(job)) if job.job_id == job_id);
        mine && !q.running && !q.awake
    }

    /// Queue `msg` behind everything sent before it and wake the worker —
    /// unless `wake` is false and the message is alone in an idle device's
    /// queue: the only job of a fan-out, left to its waiter. Fails when the
    /// worker is gone; the message is dropped, a job finishing its cell with
    /// that.
    pub(crate) fn send(&self, msg: WorkerMessage, wake: bool) -> Result<(), String> {
        let mut q = self.queue();
        if q.gone {
            return Err(worker_gone(self.device));
        }
        q.messages.push_back(msg);
        if wake || q.running || q.messages.len() > 1 {
            self.rouse(q);
        }
        Ok(())
    }

    /// Wake the worker for whatever is queued: a claim is gone, and its job
    /// may be left at the head for a waiter that is not coming.
    pub(crate) fn wake(&self) {
        self.rouse(self.queue());
    }

    fn rouse(&self, mut q: MutexGuard<'_, Queue>) {
        if !q.awake && !q.messages.is_empty() {
            q.awake = true;
            self.alarm.notify_one();
        }
    }

    /// Finish job `job_id` without the machine: run it on the calling
    /// thread if it is left to its waiter (see [`Inbox::send`]), under a
    /// span linked to the one open here, else park on its cell until its
    /// runner — or its drop, if it never runs — has finished it. The one
    /// way a waiter reaches its job.
    pub(crate) fn finish(&self, job_id: u64, cell: &JobCell) {
        let mut q = self.queue();
        let mine =
            |m: &mut WorkerMessage| matches!(m, WorkerMessage::Job(job) if job.job_id == job_id);
        let left = !q.running && !q.awake;
        let taken = left.then(|| q.messages.pop_front_if(mine)).flatten();
        let Some(WorkerMessage::Job(mut job)) = taken else {
            drop(q);
            return cell.park();
        };
        job.parent_span = ftn_trace::current_span_id();
        self.run(q, WorkerMessage::Job(job));
    }

    /// Worker side: sleep until the worker is awake and the device idle,
    /// then take the head.
    fn take(&self) -> (MutexGuard<'_, Queue>, WorkerMessage) {
        let asleep = |q: &mut Queue| !q.awake || q.running;
        let q = self.alarm.wait_while(self.queue(), asleep);
        let mut q = q.unwrap_or_else(|e| e.into_inner());
        let msg = q.messages.pop_front().expect("woken for a message");
        (q, msg)
    }

    /// Run `msg`, just taken from the head under `q` — the one runner, for
    /// the worker and a waiter alike. The device state is taken before the
    /// queue is let go, so whoever holds it is the one running; the job is
    /// finished only once the device counts as idle again, as its waiter
    /// may send the next job the moment it wakes. Returns `false` for a
    /// `Shutdown`, which never finishes: the device stays busy.
    fn run(&self, mut q: MutexGuard<'_, Queue>, msg: WorkerMessage) -> bool {
        q.running = true;
        let mut worker = self.worker();
        drop(q);
        let finished = match msg {
            WorkerMessage::Job(job) => Some(run_and_report(&mut worker, *job)),
            WorkerMessage::Evict(ids) => {
                for id in ids {
                    if let Some(local) = worker.mirror.remove(&id) {
                        worker.memory.free(local);
                    }
                }
                None
            }
            #[cfg(test)]
            WorkerMessage::Stall(release) => {
                let _ = release.recv();
                None
            }
            WorkerMessage::Shutdown => return false,
        };
        drop(worker);
        let mut q = self.queue();
        q.running = false;
        q.awake &= !q.messages.is_empty();
        // The worker may be waiting for the device.
        if q.awake {
            self.alarm.notify_one();
        }
        drop(q);
        if let Some((reporter, outcome)) = finished {
            reporter.finish(outcome);
        }
        true
    }
}

/// N simulated FPGAs, each behind a persistent worker thread and its one
/// FIFO queue, the `Inbox`. One parsed bitstream image
/// is shared across all workers and the sessionless calls placed on them.
pub struct DevicePool {
    pub(crate) slots: Vec<DeviceSlot>,
    image: Arc<ExecutorImage>,
    /// Whether every worker can have a CPU of its own (see [`affinity`]).
    pub(crate) cpu_each: bool,
    /// Cells of this pool's jobs still alive, wherever they are held.
    #[cfg(test)]
    pub(crate) live_cells: Arc<AtomicUsize>,
}

impl DevicePool {
    /// Spawn one worker per device model.
    pub fn spawn(image: Arc<ExecutorImage>, devices: &[DeviceModel]) -> Self {
        let slots = devices
            .iter()
            .enumerate()
            .map(|(index, model)| {
                let worker = Worker {
                    index,
                    pool: Arc::from(""),
                    executor: KernelExecutor::from_image(Arc::clone(&image), model.clone()),
                    model: model.clone(),
                    memory: Memory::new(),
                    mirror: HashMap::new(),
                };
                let inbox = Arc::new(Inbox {
                    device: index,
                    queue: Mutex::default(),
                    alarm: Condvar::new(),
                    worker: Mutex::new(worker),
                });
                let thread = spawn_worker(Arc::clone(&inbox));
                DeviceSlot {
                    model: model.clone(),
                    inbox,
                    thread: Some(thread),
                }
            })
            .collect();
        DevicePool {
            slots,
            image,
            cpu_each: devices.len() <= affinity(None).count_ones() as usize,
            #[cfg(test)]
            live_cells: Arc::default(),
        }
    }

    /// A fresh cell for one job's report; `sink` takes its failure if the
    /// claim is dropped unwaited.
    pub(crate) fn cell(&self, sink: Option<FailureSink>) -> Arc<JobCell> {
        #[cfg(test)]
        self.live_cells.fetch_add(1, Ordering::SeqCst);
        Arc::new(JobCell {
            state: Mutex::default(),
            cv: Condvar::new(),
            sink,
            #[cfg(test)]
            live: Arc::clone(&self.live_cells),
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no devices.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The device models, in device-index order.
    pub fn models(&self) -> Vec<DeviceModel> {
        self.slots.iter().map(|s| s.model.clone()).collect()
    }

    /// Per-device worker liveness, in device-index order — `false` once a
    /// worker thread has exited (clean shutdown or a crash that escaped the
    /// panic guard). The `/healthz` readiness probe reads this.
    pub fn alive(&self) -> Vec<bool> {
        (0..self.len()).map(|d| self.is_alive(d)).collect()
    }

    pub(crate) fn is_alive(&self, device: usize) -> bool {
        let thread = self.slots[device].thread.as_ref();
        thread.is_some_and(|t| !t.is_finished())
    }

    /// An executor for `device`'s model over the shared image: what a
    /// sessionless call placed there launches its kernels on.
    pub(crate) fn executor(&self, device: usize) -> KernelExecutor {
        KernelExecutor::from_image(Arc::clone(&self.image), self.slots[device].model.clone())
    }
}

impl Drop for DevicePool {
    fn drop(&mut self) {
        for slot in &self.slots {
            let _ = slot.inbox.send(WorkerMessage::Shutdown, true);
        }
        for slot in &mut self.slots {
            if let Some(thread) = slot.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Device state: everything device-local, whoever runs the job.
pub(crate) struct Worker {
    index: usize,
    /// The pool's name on job spans (`ClusterMachine::use_metrics`).
    pool: Arc<str>,
    executor: KernelExecutor,
    model: DeviceModel,
    memory: Memory,
    /// Session sub-buffer id -> local buffer id of its mirror.
    mirror: HashMap<BufferId, BufferId>,
}

impl Worker {
    /// Remap argument memrefs host id → local id of their resident mirror.
    fn remap_args(&self, args: &mut [RtValue]) -> Result<(), String> {
        for a in args.iter_mut() {
            if let RtValue::MemRef(m) = a {
                m.buffer = self.resident(m.buffer)?;
            }
        }
        Ok(())
    }

    /// Local id of the mirror behind host buffer `host`.
    fn resident(&self, host: BufferId) -> Result<BufferId, String> {
        self.mirror
            .get(&host)
            .copied()
            .ok_or_else(|| format!("device {}: {host:?} is not resident", self.index))
    }

    /// Write `blocks` into mirror `local`, charging host-bounced blocks as
    /// host→device transfers. The target is lifted out of device memory
    /// while it is written, so same-device blocks copy straight from their
    /// donor mirrors.
    fn apply_blocks(
        &mut self,
        local: BufferId,
        blocks: Vec<PatchBlock>,
        stats: &mut RunStats,
    ) -> Result<(), String> {
        let mut target = std::mem::replace(self.memory.get_mut(local), Buffer::I1(Vec::new()));
        let written = blocks.into_iter().try_for_each(|block| match block {
            PatchBlock::Host { dst, contents } => {
                stats.transfer_seconds += self.model.transfer_seconds(contents.byte_len());
                stats.transfers += 1;
                ftn_shard::copy_elems(&mut target, dst, &contents, 0, contents.len())
                    .map_err(|e| e.to_string())
            }
            PatchBlock::Local {
                dst,
                donor,
                src,
                len,
            } => {
                let donor = self.memory.get(self.resident(donor)?);
                ftn_shard::copy_elems(&mut target, dst, donor, src, len).map_err(|e| e.to_string())
            }
        });
        *self.memory.get_mut(local) = target;
        written
    }

    fn run_job(&mut self, mut job: JobSpec) -> Result<JobSuccess, String> {
        // 1. Apply row patches, their cost kept apart. This happens before
        // transient recording starts: a created mirror outlives the job. A
        // failed patch must not leak the mirror it created.
        let mut stats = RunStats::default();
        for patch in std::mem::take(&mut job.patches) {
            let created = patch.create.is_some();
            let local = match patch.create {
                Some(Create::Seed(fresh)) => self.memory.alloc(fresh, 0),
                Some(Create::Upload(rows)) => {
                    stats.transfer_seconds += self.model.transfer_seconds(rows.byte_len());
                    stats.transfers += 1;
                    self.memory.alloc(rows, 0)
                }
                None => self.resident(patch.target)?,
            };
            if let Err(e) = self.apply_blocks(local, patch.blocks, &mut stats) {
                if created {
                    self.memory.free(local);
                }
                return Err(format!("device {}: row patch: {e}", self.index));
            }
            self.mirror.insert(patch.target, local);
        }

        // Everything allocated from here on is job-transient (kernel-local
        // scratch) and is freed after the job — on the error and panic paths
        // too: a session retrying a failing kernel would otherwise grow the
        // arena without bound. Recording (not a bare high-water mark)
        // captures transients that reuse slots of evicted mirror buffers.
        self.memory.start_recording();
        let outcome = self.execute_recorded(job);
        for id in self.memory.take_recorded() {
            self.memory.free(id);
        }
        let mut success = outcome?;
        success.arena_buffers = self.memory.live();
        success.patched = stats;
        Ok(success)
    }

    /// Step 2 of a job — everything that allocates job-transient memory:
    /// run the kernel against the resident mirrors, then download the
    /// requested element ranges.
    fn execute_recorded(&mut self, job: JobSpec) -> Result<JobSuccess, String> {
        let mut stats = RunStats::default();
        let mut args = job.args;
        self.remap_args(&mut args)?;
        let results = match &job.kind {
            JobKind::Kernel { kernel } => {
                let es = self
                    .executor
                    .execute(kernel, &args, &mut self.memory)
                    .map_err(|e| e.to_string())?;
                stats.add_launch(&es);
                es.results
            }
            JobKind::Fetch | JobKind::RowPatch => Vec::new(),
        };
        // Only the requested element ranges travel back — a row exchange
        // never round-trips whole shards through the host.
        let mut writeback = Vec::with_capacity(job.fetch_rows.len());
        for rf in &job.fetch_rows {
            let local = self.resident(rf.src)?;
            let contents = ftn_shard::slice_of(self.memory.get(local), rf.start, rf.len)
                .map_err(|e| format!("device {}: row fetch: {e}", self.index))?;
            stats.transfer_seconds += self.model.transfer_seconds(contents.byte_len());
            stats.transfers += 1;
            writeback.push((rf.dst, contents));
        }
        Ok(JobSuccess {
            stats,
            results,
            writeback,
            arena_buffers: 0,
            queue_wait_seconds: 0.0,
            patched: RunStats::default(),
        })
    }
}

/// Simulated seconds a job's statistics occupy its device's timeline:
/// kernel wall time plus PCIe transfers.
pub(crate) fn busy_seconds(stats: &RunStats) -> f64 {
    stats.kernel_wall_seconds + stats.transfer_seconds
}

/// A zeroed buffer of `len` elements with `like`'s type.
pub(crate) fn empty_like(like: &Buffer, len: usize) -> Buffer {
    match like {
        Buffer::F32(_) => Buffer::F32(vec![0.0; len]),
        Buffer::F64(_) => Buffer::F64(vec![0.0; len]),
        Buffer::I32(_) => Buffer::I32(vec![0; len]),
        Buffer::I64(_) => Buffer::I64(vec![0; len]),
        Buffer::I1(_) => Buffer::I1(vec![false; len]),
    }
}

/// Run one job — the one runner, for the worker and for a waiter alike — and hand back its outcome with the job's reporter, for
/// the runner to finish the cell with once the device counts as idle.
/// Panics are contained (e.g. from a malformed bitstream module), so the
/// worker lives on and the job reports what went wrong.
fn run_and_report(worker: &mut Worker, job: Job) -> (Reporter, JobOutcome) {
    let index = worker.index;
    let job_id = job.job_id;
    // Queue wait = submission to dispatch, measured on the shared monotonic
    // trace clock; the job span continues the submitting request's trace
    // so the job shows up on the runner's lane under that trace id.
    let queue_wait_seconds =
        ftn_trace::now_nanos().saturating_sub(job.enqueued_nanos) as f64 * 1e-9;
    let _trace = ftn_trace::trace_scope(job.trace_id);
    let mut span = ftn_trace::span_linked(
        kind_label(&job.spec.kind),
        "worker",
        job.trace_id,
        job.parent_span,
    );
    span.arg("pool", &*worker.pool);
    span.arg("device", index);
    span.arg("job", job_id);
    if let JobKind::Kernel { kernel } = &job.spec.kind {
        span.arg("kernel", &**kernel);
    }
    let ghost_blocks: usize = job.spec.patches.iter().map(|p| p.blocks.len()).sum();
    if ghost_blocks > 0 {
        span.arg("ghost_blocks", ghost_blocks);
    }
    span.arg(
        "queue_wait_us",
        ftn_trace::ArgValue::Fixed1(queue_wait_seconds * 1e6),
    );
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run_job(job.spec)))
            .map(|r| {
                r.map(|mut success| {
                    success.queue_wait_seconds = queue_wait_seconds;
                    let busy = busy_seconds(&success.stats) + busy_seconds(&success.patched);
                    span.arg("sim_busy_us", ftn_trace::ArgValue::Fixed1(busy * 1e6));
                    success
                })
            })
            .unwrap_or_else(|panic| {
                // Best-effort reclaim of the aborted job's transients (recording
                // is still active when a job unwinds mid-execution).
                for id in worker.memory.take_recorded() {
                    worker.memory.free(id);
                }
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Err(format!("device {index} worker panicked: {msg}"))
            });
    // The span ends before the outcome becomes observable: waiters wake as
    // soon as it is, and a /trace read racing the lane write would miss
    // this job's span otherwise.
    drop(span);
    (job.reporter, result)
}

/// Spawn the worker thread for `inbox`'s device. However it exits, it
/// closes the queue behind it.
fn spawn_worker(inbox: Arc<Inbox>) -> JoinHandle<()> {
    let index = inbox.device;
    std::thread::Builder::new()
        .name(format!("ftn-device-{index}"))
        .spawn(move || {
            let (cpus, mut on_own) = (affinity(None), false);
            let own = (0..64).filter(|c| cpus >> c & 1 == 1).nth(index);
            let own = own.map_or(0, |c| 1 << c);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                let (q, msg) = inbox.take();
                // A job of a fan-out over several devices runs on this
                // worker's own CPU (see `affinity`); the mask only changes
                // when the traffic does.
                let spread = matches!(&msg, WorkerMessage::Job(job) if job.spread);
                if spread != on_own {
                    affinity(Some(if spread { own } else { cpus }));
                    on_own = spread;
                }
                if !inbox.run(q, msg) {
                    break;
                }
            }));
            // Every later send is refused, and what is queued drops: each
            // job there finishes its cell with its worker gone.
            let mut q = inbox.queue();
            q.gone = true;
            let _orphans = std::mem::take(&mut q.messages);
            drop(q);
        })
        .expect("spawn device worker thread")
}

/// Restrict the calling thread to the CPUs in `set` (bit i = CPU i; `0`
/// changes nothing) or, with `None`, read its mask; `0` when that fails (not
/// Linux, over 64 CPUs). A KVM guest sees its idle vCPU as preempted and
/// wakes every worker of a fan-out on the submitter's CPU, where the shards
/// run back to back; so a worker takes such jobs on a CPU of its own.
fn affinity(set: Option<u64>) -> u64 {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
        }
        let mut mask = set.unwrap_or(0);
        // SAFETY: glibc (std links it); pid 0 is the calling thread, and each
        // call reads or fills exactly the 8 bytes of `mask`.
        let rc = unsafe {
            match set {
                Some(0) => 0,
                Some(_) => sched_setaffinity(0, 8, &mask),
                None => sched_getaffinity(0, 8, &mut mask),
            }
        };
        if rc == 0 {
            return mask;
        }
    }
    let _ = set;
    0
}

#[cfg(test)]
#[test]
fn affinity_moves_the_calling_thread_and_gives_the_mask_back() {
    let cpus = affinity(None);
    let first = cpus & cpus.wrapping_neg(); // lowest allowed CPU; 0 if unknown
    assert_eq!(affinity(Some(first)), first);
    assert_eq!(affinity(None), first);
    affinity(Some(cpus));
    assert_eq!(affinity(None), cpus);
}
