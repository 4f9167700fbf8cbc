//! Sessions: one persistent `target data` environment spanning one or more
//! pool devices — the cluster analogue of `target teams distribute` over a
//! multi-FPGA machine. This is the only session mechanism, and it speaks
//! one vocabulary whatever the shard count: open, launch, wait,
//! `refresh_halos`, close (reporting a [`ShardedReport`]), and one read of
//! an open session, `session_info` ([`crate::session`], with the
//! whole-array spellings of a one-shard session).
//!
//! [`ClusterMachine::open_sharded_session`] partitions every mapped array
//! with an [`ftn_shard::ShardPlan`] (leading-dimension blocks, optional halo
//! rows; replicated broadcast arrays; per-shard reduction copies), assigns
//! each shard a device, and stages the shard sub-buffers there. A shard's
//! sub-buffer is device-owned from open to close: its mirror is the current
//! copy, its host slot a placeholder that only the close fetch fills. An
//! open refuses an array another open session maps, whose current contents
//! are on that session's devices; every other array is current on the host
//! (a sessionless call has returned before anyone else sees the machine).
//!
//! Every movement of a session's rows is a plan run by the one row exchange
//! (`exchange.rs`): an open is a host → devices exchange (nothing gathered,
//! every mirror created by the apply), a close a devices → host one (the
//! fetch is the gather, nothing applied). Their `*_begin` steps are here;
//! `PoolGate` runs the same phases with the machine lock released in between.
//! A halo refresh's patches ride on the session's next job to each device:
//! a launch's first job there, a later refresh's gather, or the close, which
//! sends a job to every device still holding some.
//!
//! The pool may be heterogeneous (mixed [`ftn_fpga::DeviceModel`]s):
//! devices are ordered fastest-first by predicted throughput, the largest
//! shard lands on the fastest card, and each shard's row count is
//! proportional to its device's [`ftn_fpga::CostModel::device_weight`] — a
//! 2× faster card owns ~2× the rows, so every device finishes its shard at
//! about the same simulated time. On a homogeneous pool this is the uniform
//! plan in the 0..N device order. The split is made once, at open: a session
//! keeps it until it closes.
//!
//! Each [`ClusterMachine::sharded_launch`] fans one logical kernel launch
//! out as per-shard kernel jobs with rebased trip counts
//! ([`ShardArg::Extent`] resolves to the shard's local leading-dim extent).
//! Shard jobs are *force-placed* on their shard's device, bypassing
//! least-loaded placement — the data already lives there. Every fan-out —
//! launches and the phases of every exchange — posts each job the moment
//! it is planned; a fan-out of one job to an idle device (a one-shard
//! session's launch, open, close) is run by the thread that waits for it. Close fetches every
//! shard's `from`/`tofrom` sub-buffers, gathers (concatenates owned rows,
//! dropping halos) or reduces (sum/min/max private copies) into the
//! caller's arrays, and frees the sub-buffers on host and devices alike.
//!
//! A launch's per-shard claims belong to the caller alone. A session's
//! launches in flight are the machine's pending jobs stamped with its id,
//! which a close waits for without taking their reports. A claim dropped
//! unwaited over a failed job leaves the failure in the session's sink, and
//! the next close fails with it.
//!
//! With one shard the scatter and gather are exact copies, the shard goes to
//! the least-loaded device (round-robin on ties), and the session is
//! bit-identical — results and `RunStats` totals — to the equivalent
//! `target data` program on [`ftn_core::Machine`].

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ftn_core::CompileError;
use ftn_host::RunStats;
use ftn_interp::{BufferId, RtValue};
use ftn_shard::{Partition, ShardedArray, ShardedEnvironment};
use serde::Serialize;

use crate::exchange::{ExchangeLabels, ExchangePhase, Fetches, RowExchange};
use crate::machine::{ClusterMachine, LaunchHandle};
use crate::pool::{empty_like, Create, FailureSink, RowFetch, RowPatch};
use crate::session::{MapKind, SessionStats};

// An open gathers nothing and a close applies nothing: those two names are
// never shown.
const OPEN: ExchangeLabels = ExchangeLabels {
    gather: "open.gather",
    apply: "open.stage",
};

const CLOSE: ExchangeLabels = ExchangeLabels {
    gather: "close.fetch",
    apply: "close.apply",
};

/// Upper bound on shards per pool device: bounds the sub-buffers and
/// per-launch jobs a single (possibly hostile, via the HTTP API) session
/// request can allocate, while leaving ample room for several shards per
/// device.
pub const MAX_SHARDS_PER_DEVICE: usize = 16;

/// How many shards a sharded session should open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCount {
    /// Let the cost model pick from the pool size and the mapped array
    /// lengths and halos (see [`ftn_fpga::CostModel::auto_shards`]).
    Auto,
    /// Exactly this many shards (clamped to the shortest split array's
    /// leading-dim extent and to [`MAX_SHARDS_PER_DEVICE`] × pool size).
    /// More shards than devices is allowed: devices are cycled
    /// fastest-first, and a device's shards of a launch run one after
    /// another, in shard order, from its one queue.
    Fixed(usize),
}

impl ShardCount {
    /// Parse the serve-API form: `"auto"` or a positive integer.
    pub fn parse(s: &str) -> Option<ShardCount> {
        if s == "auto" {
            return Some(ShardCount::Auto);
        }
        s.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(ShardCount::Fixed)
    }
}

/// One argument of a sharded kernel launch, resolved per shard.
#[derive(Clone, Debug)]
pub enum ShardArg {
    /// A mapped array by name → the shard's sub-buffer.
    Array(String),
    /// The local leading-dim extent of a mapped array (owned rows plus
    /// halos) as an `index` value — the rebased trip count / loop bound.
    Extent(String),
    /// The local extent of a mapped array plus a signed constant, as an
    /// `index` value — stencil loop bounds like `n - 1` rebase per shard
    /// as `ExtentOffset("u", -1)`.
    ExtentOffset(String, i64),
    /// A scalar broadcast unchanged to every shard.
    Scalar(RtValue),
}

/// One open sharded session (owned by the [`ClusterMachine`]).
pub struct ShardedSession {
    pub(crate) env: ShardedEnvironment,
    /// Each mapped array's kind, in the order of `env.arrays()`.
    pub(crate) kinds: Vec<MapKind>,
    /// shard index → device index (fastest device first).
    pub(crate) devices: Vec<usize>,
    /// The first failure of a launch whose claim was dropped unwaited; the
    /// next close fails with it.
    pub(crate) failures: FailureSink,
    pub(crate) stats: SessionStats,
    /// Per device: halo patches not yet applied there, in plan order; the
    /// session's next job to the device takes them ([`ClusterMachine::ride`]).
    pub(crate) riding: BTreeMap<usize, Vec<RowPatch>>,
}

impl ShardedSession {
    /// Whether `id` is one of this session's global or shard sub-buffers.
    pub(crate) fn uses_buffer(&self, id: BufferId) -> bool {
        self.env.arrays().iter().any(|a| a.global.buffer == id)
            || self.env.buffer_ids().contains(&id)
    }

    /// The arrays a close fetches: the `from` and `tofrom` ones, in map
    /// order.
    fn fetched(&self) -> impl Iterator<Item = &ShardedArray> {
        let kinds = self.kinds.iter();
        let arrays = self.env.arrays().iter().zip(kinds);
        arrays.filter_map(|(a, kind)| matches!(kind, MapKind::From | MapKind::ToFrom).then_some(a))
    }
}

/// Receipt for one logical sharded launch: per-shard handles plus the
/// transfers the fan-out elided. Redeem with
/// [`ClusterMachine::wait_sharded`] or `PoolGate::wait_many`.
#[derive(Debug)]
#[must_use = "wait on the ticket (wait_sharded) to observe results"]
pub struct ShardedLaunchTicket {
    /// The session the launch belongs to.
    pub session: u64,
    /// One handle per shard job, in shard order.
    pub handles: Vec<LaunchHandle>,
    /// Device of each per-shard job, in shard order.
    pub devices: Vec<usize>,
    /// Buffers already resident (transfer skipped): all of them, a shard's
    /// buffers are resident from open to close.
    pub elided: u64,
}

/// A completed sharded launch: merged statistics over the per-shard jobs.
#[derive(Clone, Debug, Serialize)]
pub struct ShardedLaunchReport {
    /// The session the launch belonged to.
    pub session: u64,
    /// Device of each per-shard job, in shard order.
    pub devices: Vec<usize>,
    /// Per-shard `RunStats` merged in shard order.
    pub stats: RunStats,
}

/// Result of closing a sharded session.
#[derive(Clone, Debug, Serialize)]
pub struct ShardedReport {
    /// The closed session's id.
    pub session: u64,
    /// How many shards the session spanned.
    pub shards: usize,
    /// shard → device assignment, in shard order.
    pub devices: Vec<usize>,
    /// Final transfer/launch/halo accounting.
    pub stats: SessionStats,
}

/// Result of one inter-launch halo refresh (see
/// [`ClusterMachine::refresh_halos`]).
#[derive(Clone, Debug, Serialize)]
pub struct HaloRefreshReport {
    /// The sharded session the refresh ran against.
    pub session: u64,
    /// Whether any ghost block was actually exchanged.
    pub refreshed: bool,
    /// Mapped arrays with at least one refreshed ghost block.
    pub arrays: usize,
    /// Ghost rows re-seeded from their current owners.
    pub halo_rows: u64,
    /// Ghost-block bytes refreshed, counted once per block (device-local
    /// donor copies included; only host-bounced blocks cross PCIe).
    pub halo_bytes: u64,
    /// Wall seconds the refresh took.
    pub seconds: f64,
}

impl ClusterMachine {
    /// Open a sharded data environment: partition each `(name, array, kind,
    /// partition)` across `shards` devices and stage every shard's
    /// sub-buffers onto its device. The effective shard count is clamped to
    /// the shortest `Split` array's leading-dim extent (more shards than
    /// devices cycle through the pool); [`ShardCount::Auto`] asks the cost
    /// model. Returns the session id. The split is fixed here: the session
    /// keeps it until it closes.
    ///
    /// # Example
    ///
    /// One SAXPY spanning two devices: `x`/`y` are split row-wise, every
    /// launch fans out with per-shard extents, and the close gathers `y`.
    ///
    /// ```
    /// use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
    /// use ftn_fpga::DeviceModel;
    /// use ftn_interp::RtValue;
    ///
    /// let src = "subroutine saxpy(n, a, x, y)\n  implicit none\n  integer :: n, i\n  real :: a, x(n), y(n)\n  !$omp target parallel do\n  do i = 1, n\n    y(i) = y(i) + a*x(i)\n  end do\n  !$omp end target parallel do\nend subroutine saxpy\n";
    /// let artifacts = ftn_core::Compiler::default().compile_source(src)?;
    /// let mut pool = ClusterMachine::load(&artifacts, &vec![DeviceModel::u280(); 2])?;
    /// let x = pool.host_f32(&[1.0; 64]);
    /// let y = pool.host_f32(&[0.5; 64]);
    /// let sid = pool.open_sharded_session(
    ///     &[
    ///         ("x", x, MapKind::To, Partition::Split { halo: 0 }),
    ///         ("y", y.clone(), MapKind::ToFrom, Partition::Split { halo: 0 }),
    ///     ],
    ///     ShardCount::Fixed(2),
    /// )?;
    /// let ticket = pool.sharded_launch(sid, "saxpy_kernel0", &[
    ///     ShardArg::Array("x".into()),
    ///     ShardArg::Array("y".into()),
    ///     ShardArg::Extent("x".into()),
    ///     ShardArg::Extent("y".into()),
    ///     ShardArg::Scalar(RtValue::F32(2.0)),
    ///     ShardArg::Scalar(RtValue::Index(1)),
    ///     ShardArg::Extent("x".into()),
    /// ])?;
    /// pool.wait_sharded(ticket)?;
    /// pool.close_sharded_session(sid)?;
    /// assert_eq!(pool.read_f32(&y), vec![2.5f32; 64]);
    /// # Ok::<(), ftn_core::CompileError>(())
    /// ```
    pub fn open_sharded_session(
        &mut self,
        maps: &[(&str, RtValue, MapKind, Partition)],
        shards: ShardCount,
    ) -> Result<u64, CompileError> {
        let phase = self.open_begin(maps, shards)?;
        self.exchange_run(phase)
    }

    /// Plan an open as a host → devices row exchange: validate the maps,
    /// pick the shard count and devices, scatter, and plan one whole-mirror
    /// block per sub-buffer. The exchange's tail puts the session into the
    /// table — or, after a failed apply, releases the scatter.
    pub(crate) fn open_begin(
        &mut self,
        maps: &[(&str, RtValue, MapKind, Partition)],
        shards: ShardCount,
    ) -> Result<ExchangePhase<u64>, CompileError> {
        let started = Instant::now();
        if maps.is_empty() {
            return Err(CompileError::new(
                "cluster-shard",
                "a session must map at least one array".to_string(),
            ));
        }
        let mut span = ftn_trace::span("session.open", "cluster");
        span.arg("maps", maps.len());
        let mut resolved = Vec::with_capacity(maps.len());
        for (name, value, kind, partition) in maps {
            let m = value
                .as_memref()
                .map_err(|e| CompileError::new("cluster-shard", format!("map '{name}': {e}")))?;
            if !self.buffers.contains(&m.buffer) {
                return Err(CompileError::new(
                    "cluster-shard",
                    format!("map '{name}': buffer not allocated on this machine"),
                ));
            }
            match (partition, kind) {
                (Partition::Replicated, MapKind::From | MapKind::ToFrom) => {
                    return Err(CompileError::new(
                        "cluster-shard",
                        format!("map '{name}': replicated arrays must be map(to:)"),
                    ));
                }
                (Partition::Reduced(_), MapKind::To) => {
                    return Err(CompileError::new(
                        "cluster-shard",
                        format!("map '{name}': reduced arrays must be map(from:|tofrom:)"),
                    ));
                }
                _ => {}
            }
            resolved.push((name.to_string(), m.clone(), *kind, *partition));
        }
        // Another open session's update lands only at its close: an array
        // it maps is refused.
        let ids: Vec<BufferId> = resolved.iter().map(|(_, m, _, _)| m.buffer).collect();
        self.refuse_mapped(&ids)?;

        // Effective shard count: request (or cost-model pick) clamped so no
        // split array ends up with an empty shard.
        let pool = self.pool.len();
        let models = self.pool.models();
        let split_rows = resolved
            .iter()
            .filter(|(_, _, _, p)| matches!(p, Partition::Split { .. }))
            .map(|(_, m, _, _)| m.shape.first().copied().unwrap_or(1).max(0) as usize)
            .min();
        let elements = resolved
            .iter()
            .filter(|(_, _, _, p)| matches!(p, Partition::Split { .. }))
            .map(|(_, m, _, _)| m.num_elements() as u64)
            .max()
            .unwrap_or(0);
        // Halo traffic the auto pick must price: the summed ghost-block
        // bytes per boundary across the split maps — what one interior
        // device exchanges per refreshed stencil iteration. Zero for
        // BLAS-shaped sessions, leaving the plain pick untouched. A halo is
        // priced clamped at the array's rows, as the plan clamps it: a wider
        // one moves no more.
        let halo_block_bytes: u64 = resolved
            .iter()
            .filter_map(|(_, m, _, p)| match p {
                Partition::Split { halo } if *halo > 0 => {
                    let rows = m.shape.first().copied().unwrap_or(1).max(1) as u64;
                    let row_elems = (m.num_elements() as u64).div_ceil(rows);
                    let b = self.memory.get(m.buffer);
                    let eb = (b.byte_len() / b.len().max(1)) as u64;
                    Some((*halo as u64).min(rows) * row_elems * eb)
                }
                _ => None,
            })
            .sum();
        let requested = match shards {
            ShardCount::Fixed(n) => n.max(1),
            // Pool-aware pick: a heterogeneous pool prices each added
            // (fastest-first) device by its own model, so a straggler card
            // that would extend the makespan is left out.
            ShardCount::Auto => self
                .cost_model
                .auto_shards(&models, elements, halo_block_bytes),
        };
        let shards = requested
            .min(pool * MAX_SHARDS_PER_DEVICE)
            .min(split_rows.unwrap_or(requested))
            .max(1);

        span.arg("shards", shards);

        // Shard → device assignment and the matching split weights. A single
        // shard has no split to weigh: it goes least-loaded round-robin, so
        // many one-device sessions spread across the pool.
        // Otherwise devices are ordered fastest-first (predicted throughput
        // on a uniform share, ties by index) so shard 0 — the largest block
        // of the weighted plan — lands on the fastest card; a homogeneous
        // pool keeps its natural 0..N order and uniform split exactly. More
        // shards than devices cycle through the order (a device's shards of
        // one launch run one after another from its one queue).
        let (devices, weights): (Vec<usize>, Vec<f64>) = if shards == 1 {
            (vec![self.least_loaded()], vec![1.0])
        } else {
            let share = elements.max(1).div_ceil(shards.min(pool) as u64);
            let order = self.cost_model.device_order(&models, share);
            let devices: Vec<usize> = (0..shards).map(|s| order[s % pool]).collect();
            let weights = devices
                .iter()
                .map(|&d| self.cost_model.device_weight(&models[d], share))
                .collect();
            (devices, weights)
        };

        // Scatter: one sub-buffer per shard and array, in pool host memory.
        // A failed map must not leak the slices of the arrays mapped before
        // it.
        let mut env = ShardedEnvironment::weighted(weights);
        for (name, m, _, partition) in &resolved {
            if let Err(e) = env.map(&mut self.memory, name, m, *partition) {
                for id in env.buffer_ids() {
                    self.memory.free(id);
                }
                return Err(CompileError::new("cluster-shard", e.to_string()));
            }
        }

        // Every sub-buffer's mirror is one block, every shard's blocks one
        // job force-placed on its device. The rows the scatter cut from the
        // caller's array travel as they are, leaving the host sub-buffer an
        // empty placeholder of their type until the close fetch overwrites
        // it: the rows live on the device, not twice. A `map(from:)` copy
        // starts device-initialized: zeroed normally, but a reduction copy at
        // the operation's identity (+∞ for min, −∞ for max — zero would
        // corrupt the fold).
        let mut blocks = Vec::new();
        for (shard, &device) in devices.iter().enumerate() {
            self.shard_forced += 1;
            for (a, (_, _, kind, partition)) in env.arrays().iter().zip(&resolved) {
                let id = a.slices[shard].memref.buffer;
                let placeholder = empty_like(self.memory.get(id), 0);
                let sub = std::mem::replace(self.memory.get_mut(id), placeholder);
                let rows = match (kind, partition) {
                    (MapKind::From, Partition::Reduced(op)) => Create::Seed(op.identity_like(&sub)),
                    (MapKind::From, _) => Create::Seed(empty_like(&sub, sub.len())),
                    _ => Create::Upload(sub),
                };
                blocks.push((id, shard, device, rows));
            }
        }

        // The id is taken now — the exchange folds its uploads into the
        // session's stats by it — so an open that fails leaves a gap.
        let session = self.session_ids.fetch_add(1, Ordering::Relaxed);
        span.arg("session", session);
        let kinds = resolved.iter().map(|(_, _, kind, _)| *kind).collect();
        let finish = move |m: &mut ClusterMachine, _: &mut ftn_trace::Span, _, ok: bool| {
            if !ok {
                // Nothing is in flight over the scatter any more: release it
                // on the host and on whichever devices built their mirrors.
                m.drop_buffers(env.buffer_ids());
                return session;
            }
            let s = ShardedSession {
                env,
                kinds,
                devices,
                failures: FailureSink::default(),
                stats: SessionStats::default(),
                riding: BTreeMap::new(),
            };
            m.sessions.insert(session, s);
            session
        };
        let mut ex = RowExchange::new(session, &OPEN, span, started, finish);
        for (id, shard, device, rows) in blocks {
            ex.stage(id, shard, device, rows);
        }
        self.exchange_apply(&mut ex);
        Ok(ExchangePhase::Run(ex))
    }

    /// Fan one logical kernel launch out as one kernel-level job per shard,
    /// each sent straight to its shard's device with rebased array and
    /// extent arguments. Device copies stay authoritative (deferred
    /// writeback); host memory syncs at close. Returns the per-shard handles.
    /// When a job cannot be sent (its worker is gone) the launch fails and
    /// the claims of the jobs that were sent are dropped: those jobs still
    /// run, the close waits for them, and a failure among them fails it.
    pub fn sharded_launch(
        &mut self,
        session: u64,
        kernel: &str,
        args: &[ShardArg],
    ) -> Result<ShardedLaunchTicket, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let shards = s.env.shards();
        // Held to the end of the fan-out so every per-shard job dispatched
        // below links its worker span back to this launch.
        let mut launch_span = ftn_trace::span("session.launch", "cluster");
        launch_span.arg("session", session);
        launch_span.arg("kernel", kernel);
        launch_span.arg("shards", shards);
        let unmapped = |name: &str| {
            CompileError::new(
                "cluster-shard",
                format!("session {session} maps no array '{name}'"),
            )
        };
        let mut per_shard: Vec<(usize, Vec<RtValue>)> = Vec::with_capacity(shards);
        for (shard, &device) in s.devices.iter().enumerate() {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                let extent = |name: &str| {
                    s.env
                        .shard_extent(shard, name)
                        .ok_or_else(|| unmapped(name))
                };
                argv.push(match a {
                    ShardArg::Array(name) => s
                        .env
                        .shard_value(shard, name)
                        .ok_or_else(|| unmapped(name))?,
                    ShardArg::Extent(name) => RtValue::Index(extent(name)?),
                    ShardArg::ExtentOffset(name, delta) => RtValue::Index(extent(name)? + delta),
                    ShardArg::Scalar(v) => {
                        if matches!(v, RtValue::MemRef(_)) {
                            return Err(CompileError::new(
                                "cluster-shard",
                                "memref scalars are not allowed; map arrays by name".to_string(),
                            ));
                        }
                        v.clone()
                    }
                });
            }
            per_shard.push((device, argv));
        }

        let devices = s.devices.clone();
        // Fan out: one kernel job per shard. The session is stamped onto
        // every job for rollup attribution, and the first job to a device
        // carries the halo patches riding there.
        self.submitting_session = Some(session);
        let mut elided = 0;
        let kernel: Arc<str> = kernel.into();
        let (handles, err) = self.fan_out(per_shard, |m, device, argv| {
            let (job, e) = m.plan_kernel(&kernel, argv, device, session);
            elided += e;
            job
        });
        self.submitting_session = None;
        let s = self.sessions.get_mut(&session).expect("checked above");
        s.stats.launches += handles.len() as u64;
        s.stats.elided_transfers += elided;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(ShardedLaunchTicket {
            session,
            handles,
            devices,
            elided,
        })
    }

    /// The name [`ClusterMachine::sharded_launch`] had while a launch could
    /// also re-plan its session; kept for callers written against it.
    #[doc(hidden)]
    pub fn sharded_launch_no_replan(
        &mut self,
        session: u64,
        kernel: &str,
        args: &[ShardArg],
    ) -> Result<ShardedLaunchTicket, CompileError> {
        self.sharded_launch(session, kernel, args)
    }

    /// Wait for every per-shard job of one sharded launch and merge their
    /// statistics in shard order, under one `session.wait` span for the
    /// whole ticket (see [`ClusterMachine::wait`]).
    pub fn wait_sharded(
        &mut self,
        ticket: ShardedLaunchTicket,
    ) -> Result<ShardedLaunchReport, CompileError> {
        let _span = ftn_trace::span("session.wait", "cluster");
        let mut stats = RunStats::default();
        for handle in ticket.handles {
            let report = self.finish_and_redeem(handle)?;
            stats.merge(&report.report.stats);
        }
        Ok(ShardedLaunchReport {
            session: ticket.session,
            devices: ticket.devices,
            stats,
        })
    }

    /// Close a sharded session: wait for its launches in flight, fetch every
    /// shard's `from`/`tofrom` sub-buffers from its device, gather
    /// (concatenate owned rows) or reduce (combine private copies) into the
    /// caller's global arrays, and free the shard sub-buffers on host and
    /// devices. A launch ticket still held stays redeemable after the close.
    /// A close that fails — a launch whose ticket was dropped unwaited
    /// failed, a fetch failed — leaves the session open and may be
    /// repeated.
    pub fn close_sharded_session(&mut self, session: u64) -> Result<ShardedReport, CompileError> {
        let phase = self.close_begin(session)?;
        self.exchange_run(phase)
    }

    /// Plan a close as a devices → host row exchange: land the session's
    /// launches in flight (their reports stay with their claims) and submit
    /// the gather — every `from`/`tofrom` sub-buffer fetched whole, and
    /// every halo patch still riding applied. The
    /// session stays in the table while its rows move, so its arrays stay
    /// refused to every run, open and free. The exchange's tail
    /// takes it out, gathers into the caller's arrays and frees the
    /// sub-buffers — or, after a failed fetch, leaves it open.
    pub(crate) fn close_begin(
        &mut self,
        session: u64,
    ) -> Result<ExchangePhase<ShardedReport>, CompileError> {
        let started = Instant::now();
        if !self.sessions.contains_key(&session) {
            return Err(CompileError::new("cluster-shard", no_session(session)));
        }
        let mut span = ftn_trace::span("session.close", "cluster");
        span.arg("session", session);
        self.quiesce(session);
        // A launch nobody will wait for, that failed, fails the close once.
        let failures = &self.sessions[&session].failures;
        if let Some(msg) = failures.lock().unwrap_or_else(|e| e.into_inner()).take() {
            return Err(CompileError::new("cluster-run", msg));
        }

        // One fetch job per shard, its sub-buffers in map order.
        let s = &self.sessions[&session];
        let mut fetches = Fetches::new();
        for (shard, &device) in s.devices.iter().enumerate() {
            let rows: Vec<RowFetch> = (s.fetched())
                .map(|a| {
                    let slice = &a.slices[shard];
                    RowFetch {
                        src: slice.memref.buffer,
                        dst: slice.memref.buffer,
                        start: 0,
                        len: slice.range.mapped_len() * a.row_elems,
                    }
                })
                .collect();
            if !rows.is_empty() {
                fetches.push((device, rows));
            }
        }
        // Every riding patch lands before the session goes: a device no
        // fetch goes to gets a job of them alone.
        for &device in s.riding.keys() {
            if !fetches.iter().any(|&(d, _)| d == device) {
                fetches.push((device, Vec::new()));
            }
        }
        let fetched = fetches.iter().map(|(_, rows)| rows.len() as u64).sum();
        let finish = move |m: &mut ClusterMachine, _: &mut ftn_trace::Span, _, ok: bool| {
            let closing = m.sessions.remove(&session);
            let mut s = closing.expect("a closing session stays in the table until here");
            if ok {
                for a in s.fetched() {
                    s.env
                        .gather(&mut m.memory, &a.name)
                        .expect("a fetched from/tofrom array gathers");
                }
                m.drop_buffers(s.env.buffer_ids());
                s.stats.fetched_downloads = fetched;
            }
            let report = ShardedReport {
                session,
                shards: s.env.shards(),
                devices: s.devices.clone(),
                stats: s.stats.clone(),
            };
            if !ok {
                // Fetches only read the mirrors: the session is as it was.
                m.sessions.insert(session, s);
            }
            report
        };
        let mut ex = RowExchange::new(session, &CLOSE, span, started, finish);
        self.exchange_fetch(&mut ex, fetches);
        Ok(ExchangePhase::Run(ex))
    }
}

pub(crate) fn no_session(session: u64) -> String {
    format!("no open session {session}")
}
