//! Sessions: one persistent `target data` environment spanning one or more
//! pool devices — the cluster analogue of `target teams distribute` over a
//! multi-FPGA machine. This is the only session mechanism: a single-device
//! session is the one-shard case (see [`crate::session`] for its thin
//! whole-array front-ends).
//!
//! [`ClusterMachine::open_sharded_session`] partitions every mapped array
//! with an [`ftn_shard::ShardPlan`] (leading-dimension blocks, optional halo
//! rows; replicated broadcast arrays; per-shard reduction copies), assigns
//! each shard a device, and stages the shard sub-buffers there — one
//! resident sub-environment per device, driven through the usual
//! `ftn_host::DataEnvironment` presence protocol inside
//! [`ftn_shard::ShardedEnvironment`].
//!
//! The pool may be heterogeneous (mixed [`ftn_fpga::DeviceModel`]s): by
//! default ([`ShardOptions::weighted`]) devices are ordered fastest-first by
//! predicted throughput, the largest shard lands on the fastest card, and
//! each shard's row count is proportional to its device's
//! [`ftn_fpga::CostModel::device_weight`] — a 2× faster card owns ~2× the
//! rows, so every device finishes its shard at about the same simulated
//! time. On a homogeneous pool this reproduces the uniform plan and the
//! 0..N device order bit-exactly.
//!
//! Each [`ClusterMachine::sharded_launch`] fans one logical kernel launch
//! out as per-shard kernel jobs with rebased trip counts
//! ([`ShardArg::Extent`] resolves to the shard's local leading-dim extent).
//! Shard jobs are *force-placed* on their shard's device: no affinity
//! scoring, no stealing across shards — the data already lives there, and
//! the per-shard trip counts price each device's backlog honestly through
//! [`ftn_fpga::CostModel`] (per that device's own model). Every fan-out —
//! open staging, launches, close fetches, epoch and halo traffic — coalesces
//! all jobs bound for one device into a single `WorkerMessage::Batch`, so a
//! logical launch costs O(devices) messages instead of O(shards). Close
//! fetches every shard's `from`/`tofrom` sub-buffers, gathers (concatenates
//! owned rows, dropping halos) or reduces (sum/min/max private copies) into
//! the caller's arrays, and frees the sub-buffers on host and devices alike.
//!
//! With one shard the scatter and gather are exact copies, the shard is
//! placed by the ordinary placement ladder, and the session is bit-identical
//! — results and `RunStats` totals — to the equivalent `target data`
//! program on [`ftn_core::Machine`].

use ftn_core::CompileError;
use ftn_host::RunStats;
use ftn_interp::{BufferId, RtValue};
use ftn_shard::{Partition, ShardPlan, ShardRange, ShardedEnvironment};
use serde::Serialize;

use crate::machine::{BufState, ClusterMachine, LaunchHandle};
use crate::pool::{HaloSplice, ReshardSpec, RowFetch};
use crate::session::{MapKind, SessionStats};

/// Upper bound on shards per pool device: bounds the sub-environments and
/// per-launch jobs a single (possibly hostile, via the HTTP API) session
/// request can allocate, while leaving ample room for the
/// several-shards-per-device fan-outs batching is built for.
pub const MAX_SHARDS_PER_DEVICE: usize = 16;

/// Minimum predicted makespan improvement (old / new over the re-plan
/// horizon) before a re-plan executes a migration epoch, when neither the
/// caller nor [`AutoRebalance`] specifies one. Migrations are cheap (only
/// owner-changing rows travel) but not free; a 5% predicted win is where
/// they start paying for themselves.
pub const DEFAULT_REBALANCE_THRESHOLD: f64 = 1.05;

/// Launch horizon over which a re-plan amortizes observed backlog when
/// derating device weights and pricing candidate plans (see
/// [`ftn_fpga::CostModel::effective_weights`]): a device with one launch's
/// worth of foreign queue is mildly derated; one with a horizon's worth is
/// effectively abandoned until the next epoch.
pub const REBALANCE_HORIZON_LAUNCHES: u64 = 16;

/// Automatic re-planning policy of a sharded session: every `interval`
/// logical launches the session snapshots per-device backlogs, re-computes
/// effective weights, and — when the predicted makespan improvement clears
/// `threshold` — executes a migration epoch before the next fan-out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoRebalance {
    /// Logical launches between re-plan checks (≥ 1).
    pub interval: u64,
    /// Minimum predicted makespan improvement (old / new) that triggers a
    /// migration epoch.
    pub threshold: f64,
}

impl Default for AutoRebalance {
    fn default() -> Self {
        AutoRebalance {
            interval: 8,
            threshold: DEFAULT_REBALANCE_THRESHOLD,
        }
    }
}

impl AutoRebalance {
    /// Parse the serve-API / CLI form `INTERVAL[:THRESHOLD]` — e.g. `4`
    /// (check every 4 launches, default threshold) or `4:1.2`.
    pub fn parse(s: &str) -> Option<AutoRebalance> {
        let (interval, threshold) = match s.split_once(':') {
            Some((i, t)) => (i, Some(t)),
            None => (s, None),
        };
        let interval = interval.parse::<u64>().ok().filter(|&n| n > 0)?;
        let threshold = match threshold {
            Some(t) => t
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 1.0)?,
            None => DEFAULT_REBALANCE_THRESHOLD,
        };
        Some(AutoRebalance {
            interval,
            threshold,
        })
    }
}

/// How many shards a sharded session should open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCount {
    /// Let the cost model pick from the pool size and the mapped array
    /// lengths (see [`ftn_fpga::CostModel::auto_shards`]).
    Auto,
    /// Exactly this many shards (clamped to the shortest split array's
    /// leading-dim extent and to [`MAX_SHARDS_PER_DEVICE`] × pool size).
    /// More shards than devices is allowed: devices are cycled
    /// (fastest-first under [`ShardOptions::weighted`]) and each worker
    /// runs its shards of a launch back-to-back — the fan-out still sends
    /// only one message per device.
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

/// How a sharded session distributes its shards. The default (weighted
/// plans) is what production traffic wants; the uniform plan remains
/// selectable as the baseline the weighted one is measured against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardOptions {
    /// Size each shard proportionally to its device's predicted throughput
    /// ([`ftn_fpga::CostModel::device_weight`]) and place the largest shard
    /// on the fastest device. On a homogeneous pool this reproduces the
    /// uniform plan and the 0..N device order exactly. When disabled, the
    /// legacy uniform split with static `shard i → device i % N` assignment
    /// is used.
    pub weighted: bool,
    /// Re-plan the session automatically as device backlogs drift: every
    /// `interval` logical launches, fold the observed backlogs into the
    /// device weights and — when the predicted makespan improvement clears
    /// `threshold` — run a migration epoch (see
    /// [`ClusterMachine::rebalance_session`]). `None` (the default) keeps
    /// the plan frozen at its open-time split; manual
    /// [`ClusterMachine::rebalance_session`] calls still work.
    pub auto_rebalance: Option<AutoRebalance>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            weighted: true,
            auto_rebalance: None,
        }
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
    /// `(name, global buffer, kind, partition)` in map order.
    pub(crate) maps: Vec<(String, BufferId, MapKind, Partition)>,
    /// shard index → device index (fastest device first under
    /// [`ShardOptions::weighted`]).
    pub(crate) devices: Vec<usize>,
    pub(crate) opts: ShardOptions,
    pub(crate) outstanding: Vec<u64>,
    /// Logical launches since the last auto re-plan check.
    pub(crate) launches_since_replan: u64,
    pub(crate) stats: SessionStats,
}

impl ShardedSession {
    /// Whether `id` is one of this session's global or shard sub-buffers.
    pub(crate) fn uses_buffer(&self, id: BufferId) -> bool {
        self.maps.iter().any(|&(_, b, _, _)| b == id) || self.env.buffer_ids().contains(&id)
    }
}

/// Receipt for one logical sharded launch: per-shard handles plus the
/// aggregate staging the fan-out performed. Redeem with
/// [`ClusterMachine::wait_sharded`].
#[derive(Debug)]
#[must_use = "wait on the ticket (wait_sharded) to observe results"]
pub struct ShardedLaunchTicket {
    /// The session the launch belongs to.
    pub session: u64,
    /// One handle per shard job, in shard order.
    pub handles: Vec<LaunchHandle>,
    /// Device of each per-shard job, in shard order.
    pub devices: Vec<usize>,
    /// Buffers the fan-out re-staged (0 once resident).
    pub staged: u64,
    /// Bytes those uploads moved.
    pub staged_bytes: u64,
    /// Buffers already resident (transfer skipped).
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
    /// Final transfer/launch/epoch accounting.
    pub stats: SessionStats,
}

/// Result of one re-plan check (see [`ClusterMachine::rebalance_session`]).
/// A check that does not clear its threshold — or finds the plan already
/// optimal — reports `replanned: false` and moves nothing.
#[derive(Clone, Debug, Serialize)]
pub struct RebalanceReport {
    /// The sharded session the check ran against.
    pub session: u64,
    /// Whether a migration epoch actually executed.
    pub replanned: bool,
    /// Predicted makespan improvement (old / new) over the re-plan horizon.
    pub predicted_gain: f64,
    /// Threshold the gain was compared against.
    pub threshold: f64,
    /// Leading-dim rows that changed owners (summed over the session's
    /// split arrays); 0 for a no-op.
    pub rows_migrated: u64,
    /// Owned rows per shard of the reference (largest) split array after
    /// the call.
    pub shard_rows: Vec<usize>,
    /// Wall seconds the epoch took (0.0 for a no-op).
    pub epoch_seconds: f64,
}

/// A migration epoch suspended between phases. The session is out of the
/// table (nothing can launch against it) and the current phase's device
/// traffic has been submitted but not yet waited. Produced by
/// [`ClusterMachine::epoch_begin`]; driven to completion either
/// synchronously inside [`ClusterMachine::rebalance_session_with`] or by a
/// caller that releases the machine lock between phases and parks on the
/// pool's [`crate::pool::CompletionSignal`] instead (the serve layer's
/// phased rebalance).
pub struct MigrationEpoch {
    session: u64,
    s: ShardedSession,
    ref_name: String,
    threshold: f64,
    predicted_gain: f64,
    replans: Vec<ftn_shard::ArrayReplan>,
    move_bufs: Vec<Vec<BufferId>>,
    /// Per replan: `(shard, dst elem offset, move buffer)` ghost-row
    /// re-seeds, fetched from their current owner rows alongside the delta
    /// gather (open-time host contents are stale for any array written
    /// between launches).
    halo_inject: Vec<Vec<(usize, usize, BufferId)>>,
    rows_migrated: u64,
    /// Handles of the phase just submitted (delta gather, then reshard).
    handles: Vec<LaunchHandle>,
    /// First error hit by any phase; the finish drain runs when set.
    failed: Option<CompileError>,
    started: std::time::Instant,
    span: ftn_trace::Span,
}

impl MigrationEpoch {
    /// Take the handles of the phase just submitted; the caller must wait
    /// each (skipping the rest after a failure, exactly like the
    /// synchronous path) before advancing to the next phase.
    pub fn take_handles(&mut self) -> Vec<LaunchHandle> {
        std::mem::take(&mut self.handles)
    }

    /// Record a phase failure (first error wins). The epoch must still be
    /// driven to [`ClusterMachine::epoch_finish`], which drains in-flight
    /// epoch jobs and releases every epoch buffer.
    pub fn fail(&mut self, err: CompileError) {
        if self.failed.is_none() {
            self.failed = Some(err);
        }
    }

    /// Whether a phase has failed (waiting the remaining handles is
    /// pointless; go straight to [`ClusterMachine::epoch_finish`]).
    pub fn failed(&self) -> bool {
        self.failed.is_some()
    }

    /// The migrating session's id.
    pub fn session(&self) -> u64 {
        self.session
    }
}

/// What [`ClusterMachine::epoch_begin`] decided.
pub enum EpochPhase {
    /// No migration (nothing to split, plan already optimal, or gain below
    /// threshold): the epoch is over and the report is final.
    Done(RebalanceReport),
    /// Rows move: the delta-gather fan-out is submitted. Wait the epoch's
    /// handles, call [`ClusterMachine::epoch_reshard`], wait again, then
    /// [`ClusterMachine::epoch_finish`].
    Gather(Box<MigrationEpoch>),
}

/// One pending ghost-row patch of a halo refresh: the splices bound for a
/// single shard sub-buffer, with host-bounced blocks still referring to
/// their move buffers by index (resolved to contents once the gather
/// phase's writebacks have landed).
struct PendingSplice {
    /// Device the patched sub-buffer is resident on.
    device: usize,
    /// Host id of the patched sub-buffer.
    host: BufferId,
    /// `(dst elem offset, move-buffer index)` host-bounced blocks.
    inject: Vec<(usize, usize)>,
    /// `(dst, donor host id, src, len)` same-device mirror-to-mirror copies.
    local: Vec<(usize, BufferId, usize, usize)>,
}

/// An inter-launch halo refresh suspended between phases. Unlike a
/// migration epoch the session *stays in the table* — no rows change
/// owners and no sub-buffer is replaced, so nothing a concurrent wait
/// could observe is torn down. Produced by [`ClusterMachine::halo_begin`];
/// driven to completion either synchronously inside
/// [`ClusterMachine::refresh_halos`] or by a caller that releases the
/// machine lock between phases (the serve layer's phased refresh).
///
/// No quiesce phase exists: each worker queue is FIFO, so the donor row
/// fetches land after every kernel already queued on the donor's device,
/// and the wait between the gather and splice phases orders the exchange
/// across devices.
pub struct HaloExchange {
    session: u64,
    /// Host move buffers receiving the donor ghost blocks (epoch-transient).
    move_bufs: Vec<BufferId>,
    pending: Vec<PendingSplice>,
    /// Arrays with at least one refreshed ghost block.
    arrays: usize,
    /// Ghost rows refreshed (device-local copies included).
    rows: u64,
    /// Ghost-block bytes refreshed, counted once per block.
    bytes: u64,
    /// Staged-upload accounting folded from the splice tickets.
    splice_staged: u64,
    splice_bytes: u64,
    /// Handles of the phase just submitted (gather, then splice).
    handles: Vec<LaunchHandle>,
    /// First error hit by any phase; the finish drain runs when set.
    failed: Option<CompileError>,
    started: std::time::Instant,
    span: ftn_trace::Span,
}

impl HaloExchange {
    /// Take the handles of the phase just submitted; the caller must wait
    /// each (skipping the rest after a failure) before advancing.
    pub fn take_handles(&mut self) -> Vec<LaunchHandle> {
        std::mem::take(&mut self.handles)
    }

    /// Record a phase failure (first error wins). The exchange must still
    /// be driven to [`ClusterMachine::halo_finish`], which drains in-flight
    /// jobs and releases the move buffers.
    pub fn fail(&mut self, err: CompileError) {
        if self.failed.is_none() {
            self.failed = Some(err);
        }
    }

    /// Whether a phase has failed (waiting the remaining handles is
    /// pointless; go straight to [`ClusterMachine::halo_finish`]).
    pub fn failed(&self) -> bool {
        self.failed.is_some()
    }

    /// The refreshing session's id.
    pub fn session(&self) -> u64 {
        self.session
    }
}

/// What [`ClusterMachine::halo_begin`] decided.
pub enum HaloPhase {
    /// Nothing to exchange (single shard, or no mapped array carries
    /// halos): the refresh is over and the report is final.
    Done(HaloRefreshReport),
    /// Ghost blocks move: the donor-gather fan-out is submitted (possibly
    /// empty when every donor is same-device). Wait the exchange's
    /// handles, call [`ClusterMachine::halo_splice`], wait again, then
    /// [`ClusterMachine::halo_finish`].
    Exchange(Box<HaloExchange>),
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
    /// model. Returns the session id.
    pub fn open_sharded_session(
        &mut self,
        maps: &[(&str, RtValue, MapKind, Partition)],
        shards: ShardCount,
    ) -> Result<u64, CompileError> {
        self.open_sharded_session_with(maps, shards, ShardOptions::default())
    }

    /// [`ClusterMachine::open_sharded_session`] with explicit
    /// [`ShardOptions`] (weighted vs uniform plans, automatic re-planning) —
    /// the default options are right for production traffic; this entry
    /// point exists for conformance tests, benchmarks, and sessions opting
    /// into [`ShardOptions::auto_rebalance`].
    ///
    /// # Example
    ///
    /// One SAXPY spanning two devices: `x`/`y` are split row-wise, every
    /// launch fans out with per-shard extents, and the close gathers `y`.
    ///
    /// ```
    /// use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount, ShardOptions};
    /// use ftn_fpga::DeviceModel;
    /// use ftn_interp::RtValue;
    ///
    /// let src = "subroutine saxpy(n, a, x, y)\n  implicit none\n  integer :: n, i\n  real :: a, x(n), y(n)\n  !$omp target parallel do\n  do i = 1, n\n    y(i) = y(i) + a*x(i)\n  end do\n  !$omp end target parallel do\nend subroutine saxpy\n";
    /// let artifacts = ftn_core::Compiler::default().compile_source(src)?;
    /// let mut pool = ClusterMachine::load(&artifacts, &vec![DeviceModel::u280(); 2])?;
    /// let x = pool.host_f32(&[1.0; 64]);
    /// let y = pool.host_f32(&[0.5; 64]);
    /// let sid = pool.open_sharded_session_with(
    ///     &[
    ///         ("x", x, MapKind::To, Partition::Split { halo: 0 }),
    ///         ("y", y.clone(), MapKind::ToFrom, Partition::Split { halo: 0 }),
    ///     ],
    ///     ShardCount::Fixed(2),
    ///     ShardOptions::default(),
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
    pub fn open_sharded_session_with(
        &mut self,
        maps: &[(&str, RtValue, MapKind, Partition)],
        shards: ShardCount,
        opts: ShardOptions,
    ) -> Result<u64, CompileError> {
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
            if !self.buffers.contains_key(&m.buffer) {
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
        // BLAS-shaped sessions, leaving the plain pick untouched.
        let halo_block_bytes: u64 = resolved
            .iter()
            .filter_map(|(_, m, _, p)| match p {
                Partition::Split { halo } if *halo > 0 => {
                    let rows = m.shape.first().copied().unwrap_or(1).max(1) as u64;
                    let row_elems = (m.num_elements() as u64).div_ceil(rows);
                    let b = self.memory.get(m.buffer);
                    let eb = (b.byte_len() / b.len().max(1)) as u64;
                    Some(*halo as u64 * row_elems * eb)
                }
                _ => None,
            })
            .sum();
        let requested = match shards {
            ShardCount::Fixed(n) => n.max(1),
            ShardCount::Auto if opts.weighted => {
                // Pool-aware pick: a heterogeneous pool prices each added
                // (fastest-first) device by its own model, so a straggler
                // card that would extend the makespan is left out.
                self.cost_model
                    .auto_shards_pool_stencil(&models, elements, halo_block_bytes)
            }
            ShardCount::Auto => self.cost_model.auto_shards_stencil(
                &self.pool.slots[0].model,
                elements,
                pool,
                halo_block_bytes,
            ),
        };
        let shards = requested
            .min(pool * MAX_SHARDS_PER_DEVICE)
            .min(split_rows.unwrap_or(requested))
            .max(1);

        span.arg("shards", shards);

        // Shard → device assignment and the matching split weights. A single
        // shard has no split to weigh: it goes where the placement ladder
        // puts any job over the mapped arrays (affinity, else least-loaded
        // round-robin), so many one-device sessions spread across the pool.
        // Weighted sessions order devices fastest-first (predicted
        // throughput on a uniform share, ties by index) so shard 0 — the
        // largest block of a weighted plan — lands on the fastest card; a
        // homogeneous pool keeps its natural 0..N order and uniform split
        // exactly. More shards than devices cycle through the order (a
        // device's shards of one launch run back-to-back on its FIFO
        // worker). Unweighted sessions keep the static `shard i → device
        // i % N` map.
        let (devices, weights): (Vec<usize>, Vec<f64>) = if shards == 1 {
            let ids: Vec<BufferId> = resolved.iter().map(|(_, m, _, _)| m.buffer).collect();
            (vec![self.place_for(&ids)?], vec![1.0])
        } else if opts.weighted {
            let share = elements.max(1).div_ceil(shards.min(pool) as u64);
            let order = self.cost_model.device_order(&models, share);
            let devices: Vec<usize> = (0..shards).map(|s| order[s % pool]).collect();
            let weights = devices
                .iter()
                .map(|&d| self.cost_model.device_weight(&models[d], share))
                .collect();
            (devices, weights)
        } else {
            ((0..shards).map(|s| s % pool).collect(), vec![1.0; shards])
        };

        // Scatter: one sub-environment per shard, sub-buffers in pool host
        // memory (they behave like any other host buffer from here on). A
        // failed map must not leak the slices of the arrays mapped before
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
        for id in env.buffer_ids() {
            self.buffers.insert(id, Default::default());
        }

        // Stage every shard onto its device; uploads overlap across devices
        // and travel as one message per device.
        let mut stats = SessionStats::default();
        let (handles, err) =
            self.fan_out(devices.iter().copied().enumerate(), |m, shard, device| {
                // `map(from:)` copies start device-initialized rather than from
                // host contents: zeroed normally, but a reduction copy must
                // start at the operation's identity (+∞ for min, −∞ for max —
                // zero would corrupt the fold).
                let upload: Vec<(BufferId, Option<ftn_interp::Buffer>)> = env
                    .arrays()
                    .iter()
                    .zip(&resolved)
                    .map(|(a, (_, _, kind, partition))| {
                        let id = a.slices[shard].memref.buffer;
                        let seed = (*kind == MapKind::From).then(|| match partition {
                            Partition::Reduced(op) => op.identity_like(m.memory.get(id)),
                            _ => crate::machine::zeroed_like(m.memory.get(id)),
                        });
                        (id, seed)
                    })
                    .collect();
                let ticket = m.submit_upload(&upload, device)?;
                stats.staged_uploads += ticket.staged;
                stats.staged_bytes += ticket.staged_bytes;
                stats.elided_transfers += ticket.elided;
                Ok(ticket.handle)
            });
        if let Some(e) = err {
            return Err(e);
        }
        for h in handles {
            self.wait(h)?;
        }

        let session = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            session,
            ShardedSession {
                env,
                maps: resolved
                    .into_iter()
                    .map(|(name, m, kind, partition)| (name, m.buffer, kind, partition))
                    .collect(),
                devices,
                opts,
                outstanding: Vec::new(),
                launches_since_replan: 0,
                stats,
            },
        );
        Ok(session)
    }

    /// The shard count of an open sharded session.
    pub fn sharded_shards(&self, session: u64) -> Option<usize> {
        self.sessions.get(&session).map(|s| s.env.shards())
    }

    /// The devices an open sharded session spans, in shard order.
    pub fn sharded_devices(&self, session: u64) -> Option<Vec<usize>> {
        self.sessions.get(&session).map(|s| s.devices.clone())
    }

    /// The per-shard split weights of an open sharded session (uniform for
    /// an unweighted session or a homogeneous pool).
    pub fn sharded_weights(&self, session: u64) -> Option<Vec<f64>> {
        self.sessions
            .get(&session)
            .map(|s| s.env.weights().to_vec())
    }

    /// Owned leading-dim rows per shard of a mapped array, in shard order —
    /// the realized partition (halo rows excluded).
    pub fn sharded_shard_rows(&self, session: u64, name: &str) -> Option<Vec<usize>> {
        let s = self.sessions.get(&session)?;
        let a = s.env.array(name)?;
        Some(a.slices.iter().map(|slice| slice.range.len).collect())
    }

    /// The `(name, global array, kind, partition)` mappings of an open
    /// sharded session, in map order.
    pub fn sharded_maps(&self, session: u64) -> Option<Vec<(String, RtValue, MapKind, Partition)>> {
        let s = self.sessions.get(&session)?;
        Some(
            s.maps
                .iter()
                .map(|(name, _, kind, partition)| {
                    let a = s.env.array(name).expect("mapped name resolves");
                    (
                        name.clone(),
                        RtValue::MemRef(a.global.clone()),
                        *kind,
                        *partition,
                    )
                })
                .collect(),
        )
    }

    /// Fan one logical kernel launch out as one kernel-level job per shard,
    /// each force-placed on its shard's device with rebased array and extent
    /// arguments. Device copies stay authoritative (deferred writeback);
    /// host memory syncs at close. Returns the per-shard handles.
    pub fn sharded_launch(
        &mut self,
        session: u64,
        kernel: &str,
        args: &[ShardArg],
    ) -> Result<ShardedLaunchTicket, CompileError> {
        // Auto re-plan: every `interval` logical launches, re-decide the
        // split before rebasing this launch's extents — a stale plan would
        // fan the launch out with the old row counts.
        if let Some(threshold) = self.auto_rebalance_due(session)? {
            self.rebalance_session_with(session, Some(threshold))?;
        }
        self.sharded_launch_no_replan(session, kernel, args)
    }

    /// Count one logical launch against sharded session `session`'s
    /// [`AutoRebalance`] interval; `Some(threshold)` when a re-plan check
    /// is due (the counter resets). [`ClusterMachine::sharded_launch`]
    /// calls this inline; the serve layer calls it separately so the due
    /// re-plan can run as a *phased* epoch with the machine lock released
    /// between phases, then fans out via
    /// [`ClusterMachine::sharded_launch_no_replan`].
    pub fn auto_rebalance_due(&mut self, session: u64) -> Result<Option<f64>, CompileError> {
        let s = self
            .sessions
            .get_mut(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let Some(ar) = s.opts.auto_rebalance else {
            return Ok(None);
        };
        s.launches_since_replan += 1;
        if s.launches_since_replan >= ar.interval.max(1) {
            s.launches_since_replan = 0;
            Ok(Some(ar.threshold))
        } else {
            Ok(None)
        }
    }

    /// The fan-out half of [`ClusterMachine::sharded_launch`]: one
    /// kernel-level job per shard, *without* the auto-rebalance check.
    /// Callers that ran [`ClusterMachine::auto_rebalance_due`] (and any due
    /// epoch) themselves use this directly.
    pub fn sharded_launch_no_replan(
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
        let mut per_shard: Vec<Vec<RtValue>> = Vec::with_capacity(shards);
        for shard in 0..shards {
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
            per_shard.push(argv);
        }

        let mut ticket = ShardedLaunchTicket {
            session,
            handles: Vec::new(),
            devices: s.devices.clone(),
            staged: 0,
            staged_bytes: 0,
            elided: 0,
        };
        // Fan out: one kernel job per shard, one message per device. The
        // session is stamped onto every job for rollup attribution.
        self.submitting_session = Some(session);
        let (handles, err) = self.fan_out(per_shard.iter().enumerate(), |m, shard, argv| {
            let t = m.submit_kernel_deferred(kernel, argv, ticket.devices[shard])?;
            ticket.staged += t.staged;
            ticket.staged_bytes += t.staged_bytes;
            ticket.elided += t.elided;
            Ok(t.handle)
        });
        self.submitting_session = None;
        if let Some(e) = err {
            return Err(e);
        }
        ticket.handles = handles;
        let s = self.sessions.get_mut(&session).expect("checked above");
        s.stats.launches += shards as u64;
        s.stats.staged_uploads += ticket.staged;
        s.stats.staged_bytes += ticket.staged_bytes;
        s.stats.elided_transfers += ticket.elided;
        s.outstanding
            .extend(ticket.handles.iter().map(|h| h.job_id()));
        Ok(ticket)
    }

    /// Wait for every per-shard job of one sharded launch and merge their
    /// statistics in shard order.
    pub fn wait_sharded(
        &mut self,
        ticket: ShardedLaunchTicket,
    ) -> Result<ShardedLaunchReport, CompileError> {
        let mut stats = RunStats::default();
        for handle in ticket.handles {
            let report = self.wait(handle)?;
            stats.merge(&report.report.stats);
        }
        Ok(ShardedLaunchReport {
            session: ticket.session,
            devices: ticket.devices,
            stats,
        })
    }

    /// Close a sharded session: drain outstanding launches, fetch every
    /// shard's `from`/`tofrom` sub-buffers from its device, gather
    /// (concatenate owned rows) or reduce (combine private copies) into the
    /// caller's global arrays, and free the shard sub-buffers on host and
    /// devices.
    pub fn close_sharded_session(&mut self, session: u64) -> Result<ShardedReport, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let mut span = ftn_trace::span("session.close", "cluster");
        span.arg("session", session);
        let outstanding = s.outstanding.clone();
        for job_id in outstanding {
            // The caller may have waited some launches itself; skip those.
            if self.pending.contains_key(&job_id) || self.completed.contains_key(&job_id) {
                self.wait(LaunchHandle { job_id })?;
            }
        }

        let s = self.sessions.get(&session).expect("still present");
        let shards = s.env.shards();
        // `(device, sub-buffers to fetch)` per shard.
        let mut per_shard_fetch: Vec<(usize, Vec<BufferId>)> =
            s.devices.iter().map(|&d| (d, Vec::new())).collect();
        for (name, _, kind, _) in &s.maps {
            if matches!(kind, MapKind::From | MapKind::ToFrom) {
                let a = s.env.array(name).expect("mapped name resolves");
                for (shard, slice) in a.slices.iter().enumerate() {
                    per_shard_fetch[shard].1.push(slice.memref.buffer);
                }
            }
        }
        per_shard_fetch.retain(|(_, ids)| !ids.is_empty());
        let fetched: u64 = per_shard_fetch
            .iter()
            .map(|(_, ids)| ids.len() as u64)
            .sum();
        let (handles, err) = self.fan_out(per_shard_fetch, |m, device, ids| {
            m.submit_fetch(device, &ids)
        });
        if let Some(e) = err {
            return Err(e);
        }
        for h in handles {
            self.wait(h)?;
        }

        let mut s = self.sessions.remove(&session).expect("still present");
        for (name, global, kind, _) in &s.maps {
            if matches!(kind, MapKind::From | MapKind::ToFrom) {
                s.env
                    .gather(&mut self.memory, name)
                    .map_err(|e| CompileError::new("cluster-shard", e.to_string()))?;
                // The gather rewrote host memory directly: bump the global
                // buffer's version so stale device copies are not trusted.
                if let Some(state) = self.buffers.get_mut(global) {
                    state.version += 1;
                    state.written = state.version;
                    state.resident.clear();
                }
            }
        }
        s.env.release();
        let sub = s.env.buffer_ids();
        for id in &sub {
            self.buffers.remove(id);
            self.memory.free(*id);
        }
        self.evict_mirrors(sub);
        s.stats.fetched_downloads = fetched;
        Ok(ShardedReport {
            session,
            shards,
            devices: s.devices,
            stats: s.stats,
        })
    }

    /// Exchange every mapped split array's halo ghost rows with their
    /// current owner rows — the inter-launch primitive iterative stencils
    /// need between sweeps. Only boundary blocks travel: a block whose
    /// owner shard lives on another device is fetched device→host into a
    /// dedicated move buffer and spliced host→device into the recipient's
    /// mirror (two boundary-sized PCIe hops — never a full-array
    /// gather/re-scatter); a block whose owner shares the recipient's
    /// device copies mirror-to-mirror for free. Owned rows never move and
    /// host memory is never brought up to date (device copies stay
    /// authoritative until close).
    ///
    /// No quiesce precedes the exchange: worker queues are FIFO, so the
    /// donor fetches run after every kernel already queued on their
    /// devices, and the wait between the gather and splice phases orders
    /// the exchange across devices.
    ///
    /// Synchronous composition of the exchange phases — a caller that must
    /// not block other sessions runs the same phases with the machine lock
    /// released between them (see [`ClusterMachine::halo_begin`]).
    ///
    /// # Example
    ///
    /// One Jacobi sweep across two devices, ghosts refreshed between
    /// launches:
    ///
    /// ```
    /// use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
    /// use ftn_fpga::DeviceModel;
    ///
    /// let src = "subroutine jacobi(n, u, v)\n  implicit none\n  integer :: n, i\n  real :: u(n), v(n)\n  !$omp target parallel do\n  do i = 2, n - 1\n    v(i) = 0.5 * (u(i-1) + u(i+1))\n  end do\n  !$omp end target parallel do\nend subroutine jacobi\n";
    /// let artifacts = ftn_core::Compiler::default().compile_source(src)?;
    /// let mut pool = ClusterMachine::load(&artifacts, &vec![DeviceModel::u280(); 2])?;
    /// let u = pool.host_f32(&[1.0; 64]);
    /// let v = pool.host_f32(&[0.0; 64]);
    /// let sid = pool.open_sharded_session(
    ///     &[
    ///         ("u", u, MapKind::ToFrom, Partition::Split { halo: 1 }),
    ///         ("v", v, MapKind::ToFrom, Partition::Split { halo: 1 }),
    ///     ],
    ///     ShardCount::Fixed(2),
    /// )?;
    /// let args = [
    ///     ShardArg::Array("u".into()),
    ///     ShardArg::Array("v".into()),
    ///     ShardArg::Extent("u".into()),
    ///     ShardArg::Extent("v".into()),
    ///     ShardArg::Scalar(ftn_interp::RtValue::Index(2)),
    ///     ShardArg::ExtentOffset("u".into(), -1),
    /// ];
    /// let t = pool.sharded_launch(sid, "jacobi_kernel0", &args)?;
    /// pool.wait_sharded(t)?;
    /// let report = pool.refresh_halos(sid)?;
    /// assert!(report.refreshed && report.halo_rows > 0);
    /// pool.close_sharded_session(sid)?;
    /// # Ok::<(), ftn_core::CompileError>(())
    /// ```
    pub fn refresh_halos(&mut self, session: u64) -> Result<HaloRefreshReport, CompileError> {
        match self.halo_begin(session)? {
            HaloPhase::Done(report) => Ok(report),
            HaloPhase::Exchange(mut ex) => {
                self.halo_wait(&mut ex);
                self.halo_splice(&mut ex);
                self.halo_wait(&mut ex);
                self.halo_finish(*ex)
            }
        }
    }

    /// Wait every handle of the exchange's current phase under this
    /// machine (blocking). A failed job aborts the refresh — the remaining
    /// handles are left for the finish drain. Phased callers park on the
    /// pool's [`crate::pool::CompletionSignal`] instead of calling this.
    pub fn halo_wait(&mut self, ex: &mut HaloExchange) {
        for h in ex.take_handles() {
            if ex.failed() {
                break;
            }
            if let Err(e) = self.wait(h) {
                ex.fail(e);
            }
        }
    }

    /// Phase 1 of a halo refresh: walk every split array's ghost blocks,
    /// split each across its owner shards, and submit the donor-gather
    /// fan-out (cross-device blocks → move buffers; same-device blocks
    /// wait for the splice phase, where they copy mirror-to-mirror). The
    /// caller waits the returned exchange's handles, then drives
    /// [`ClusterMachine::halo_splice`] and [`ClusterMachine::halo_finish`].
    pub fn halo_begin(&mut self, session: u64) -> Result<HaloPhase, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let devices = s.devices.clone();
        let pool = self.pool.len();
        // Snapshot the split arrays' slice layout so the machine can be
        // mutated (move-buffer allocation) while the plan is walked.
        struct ArraySnapshot {
            elem: String,
            row_elems: usize,
            slices: Vec<(BufferId, ShardRange)>,
        }
        let snapshots: Vec<ArraySnapshot> = s
            .env
            .arrays()
            .iter()
            .filter(|a| matches!(a.partition, Partition::Split { .. }))
            .map(|a| ArraySnapshot {
                elem: a.elem.clone(),
                row_elems: a.row_elems,
                slices: a
                    .slices
                    .iter()
                    .map(|sl| (sl.memref.buffer, sl.range))
                    .collect(),
            })
            .collect();
        let started = std::time::Instant::now();
        let mut span = ftn_trace::span("session.refresh_halos", "cluster");
        span.arg("session", session);

        let mut move_bufs: Vec<BufferId> = Vec::new();
        let mut per_device_fetch: Vec<Vec<RowFetch>> = (0..pool).map(|_| Vec::new()).collect();
        let mut pending: Vec<PendingSplice> = Vec::new();
        let (mut arrays, mut rows, mut bytes) = (0usize, 0u64, 0u64);
        let mut alloc_err = None;
        'arrays: for a in &snapshots {
            let before = rows;
            let eb = {
                let b = self.memory.get(a.slices[0].0);
                (b.byte_len() / b.len().max(1)) as u64
            };
            for (shard, &(host, r)) in a.slices.iter().enumerate() {
                let mut inject = Vec::new();
                let mut local = Vec::new();
                for (blo, bhi) in [
                    (r.start - r.halo_lo, r.start),
                    (r.start + r.len, r.start + r.len + r.halo_hi),
                ] {
                    // A ghost block may span several owner shards (halo
                    // wider than a neighbour): split it by owned range.
                    for (donor, &(donor_host, dr)) in a.slices.iter().enumerate() {
                        let (plo, phi) = (blo.max(dr.start), bhi.min(dr.start + dr.len));
                        if phi <= plo {
                            continue;
                        }
                        let dst = (plo - r.mapped_start()) * a.row_elems;
                        let src = (plo - dr.mapped_start()) * a.row_elems;
                        let len = (phi - plo) * a.row_elems;
                        rows += (phi - plo) as u64;
                        bytes += len as u64 * eb;
                        if devices[donor] == devices[shard] {
                            local.push((dst, donor_host, src, len));
                            continue;
                        }
                        let mv = match self.memory.alloc_zeroed(&a.elem, len, 0) {
                            Ok(id) => id,
                            Err(e) => {
                                alloc_err = Some(CompileError::new("cluster-shard", e.to_string()));
                                break 'arrays;
                            }
                        };
                        self.buffers.insert(mv, BufState::default());
                        per_device_fetch[devices[donor]].push(RowFetch {
                            src: donor_host,
                            dst: mv,
                            start: src,
                            len,
                            version: 1,
                        });
                        inject.push((dst, move_bufs.len()));
                        move_bufs.push(mv);
                    }
                }
                if !inject.is_empty() || !local.is_empty() {
                    pending.push(PendingSplice {
                        device: devices[shard],
                        host,
                        inject,
                        local,
                    });
                }
            }
            if rows > before {
                arrays += 1;
            }
        }
        if alloc_err.is_none() && pending.is_empty() {
            drop(span);
            return Ok(HaloPhase::Done(HaloRefreshReport {
                session,
                refreshed: false,
                arrays: 0,
                halo_rows: 0,
                halo_bytes: 0,
                seconds: started.elapsed().as_secs_f64(),
            }));
        }
        span.arg("arrays", arrays);
        span.arg("halo_rows", rows);
        let mut ex = Box::new(HaloExchange {
            session,
            move_bufs,
            pending,
            arrays,
            rows,
            bytes,
            splice_staged: 0,
            splice_bytes: 0,
            handles: Vec::new(),
            failed: None,
            started,
            span,
        });
        match alloc_err {
            Some(e) => ex.failed = Some(e),
            None => {
                // Donor-gather fan-out: one row-fetch job per donating
                // device. Submitted here; the caller waits the handles.
                let fetches: Vec<(usize, Vec<RowFetch>)> = per_device_fetch
                    .into_iter()
                    .enumerate()
                    .filter(|(_, rf)| !rf.is_empty())
                    .collect();
                let mut sp = ftn_trace::span("halo.gather", "epoch");
                sp.arg("devices", fetches.len());
                let (handles, err) =
                    self.fan_out(fetches, |m, device, rf| m.submit_fetch_rows(device, rf));
                ex.handles = handles;
                if let Some(e) = err {
                    ex.failed = Some(e);
                }
            }
        }
        Ok(HaloPhase::Exchange(ex))
    }

    /// Phase 2 of a halo refresh (after the gather handles are waited):
    /// splice every ghost block into its recipient's resident mirror —
    /// host-bounced blocks resolved from their landed move buffers,
    /// same-device blocks as mirror-to-mirror copies — and submit the
    /// splice fan-out. No-op when a prior phase failed.
    pub fn halo_splice(&mut self, ex: &mut HaloExchange) {
        if ex.failed.is_some() {
            return;
        }
        let mut per_device: Vec<Vec<HaloSplice>> =
            (0..self.pool.len()).map(|_| Vec::new()).collect();
        for ps in &ex.pending {
            let inject = ps
                .inject
                .iter()
                .map(|&(dst, idx)| (dst, self.memory.get(ex.move_bufs[idx]).clone()))
                .collect();
            per_device[ps.device].push(HaloSplice {
                host: ps.host,
                inject,
                local: ps.local.clone(),
                // Assigned by `submit_halo_splice` from the buffer ledger.
                version: 0,
            });
        }
        let splices: Vec<(usize, Vec<HaloSplice>)> = per_device
            .into_iter()
            .enumerate()
            .filter(|(_, sp)| !sp.is_empty())
            .collect();
        let mut sp = ftn_trace::span("halo.splice", "epoch");
        sp.arg("devices", splices.len());
        let (mut staged, mut staged_bytes) = (0u64, 0u64);
        let (handles, err) = self.fan_out(splices, |m, device, specs| {
            let t = m.submit_halo_splice(device, specs)?;
            staged += t.staged;
            staged_bytes += t.staged_bytes;
            Ok(t.handle)
        });
        ex.splice_staged += staged;
        ex.splice_bytes += staged_bytes;
        ex.handles = handles;
        if let Some(e) = err {
            ex.fail(e);
        }
    }

    /// Final phase of a halo refresh (after the splice handles are
    /// waited): drain any refresh jobs still in flight when a phase
    /// failed, release the move buffers, and fold the refresh into the
    /// session/pool statistics. Returns the refresh's report — or the
    /// failing phase's error, with every move buffer released regardless.
    pub fn halo_finish(&mut self, ex: HaloExchange) -> Result<HaloRefreshReport, CompileError> {
        let HaloExchange {
            session,
            move_bufs,
            pending,
            arrays,
            rows,
            bytes,
            splice_staged,
            splice_bytes,
            handles: _,
            failed,
            started,
            span: mut halo_span,
        } = ex;

        // A failed fan-out can leave refresh jobs in flight over the move
        // buffers we are about to free; drain outcomes until they are
        // quiescent (best effort — draining itself fails only when all
        // workers are gone).
        if failed.is_some() {
            let busy = |m: &ClusterMachine| {
                move_bufs
                    .iter()
                    .chain(pending.iter().map(|p| &p.host))
                    .any(|id| m.buffers.get(id).is_some_and(|b| b.in_flight.is_some()))
            };
            while busy(self) {
                if self.process_one_outcome().is_err() {
                    break;
                }
            }
        }

        // Move buffers are refresh-transient on every path (row fetches
        // write back without creating mirror entries, and splices carry
        // contents by value).
        for id in &move_bufs {
            self.buffers.remove(id);
            self.memory.free(*id);
        }

        let seconds = started.elapsed().as_secs_f64();
        if failed.is_none() {
            halo_span.arg("halo_bytes", bytes);
            if let Some(s) = self.sessions.get_mut(&session) {
                s.stats.staged_uploads += splice_staged;
                s.stats.staged_bytes += splice_bytes;
                s.stats.halo_refreshes += 1;
                s.stats.halo_rows += rows;
                s.stats.halo_bytes += bytes;
            }
            self.metrics.halo_refreshes.inc();
            self.metrics.halo_bytes.add(bytes);
        }
        drop(halo_span);
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(HaloRefreshReport {
            session,
            refreshed: true,
            arrays,
            halo_rows: rows,
            halo_bytes: bytes,
            seconds,
        })
    }

    /// Re-plan a sharded session against the pool's *current* backlogs —
    /// the dynamic half of the placement ladder. Snapshots each device's
    /// cost-priced queue depth, folds it into the static device weights
    /// ([`ftn_fpga::CostModel::effective_weights`]), and compares the
    /// session's current split against the re-weighted candidate over the
    /// [`REBALANCE_HORIZON_LAUNCHES`] horizon. When the predicted makespan
    /// improvement clears the session's threshold (its
    /// [`AutoRebalance::threshold`], else
    /// [`DEFAULT_REBALANCE_THRESHOLD`]), a **migration epoch** runs:
    ///
    /// 1. **Quiesce** — every outstanding shard job completes (outcomes
    ///    stay claimable by tickets the caller already holds).
    /// 2. **Delta gather** — only the rows that change owners are fetched
    ///    from their old devices into move buffers; resident rows never
    ///    leave their device.
    /// 3. **Restage** — each changed shard's mirror is rebuilt in place:
    ///    retained rows copy device-locally, migrated rows splice in from
    ///    their move buffers, and halo ghost rows re-seed from their
    ///    *current owner rows* (fetched with the delta gather — never from
    ///    the caller's open-time contents, which are stale for any array
    ///    written between launches).
    /// 4. **Resume** — the session continues under the new plan; replaced
    ///    sub-buffers are freed on host and devices.
    ///
    /// [`SessionStats`] records `replan_count`, `rows_migrated`, and
    /// `epoch_seconds` for executed epochs; a below-threshold or zero-delta
    /// check is a pure no-op. Sessions opened with
    /// [`ShardOptions::auto_rebalance`] run this automatically every
    /// `interval` launches; this entry point serves manual callers (e.g.
    /// `POST /sessions/{id}/rebalance`).
    ///
    /// # Example
    ///
    /// A quiet pool re-plans to the split it already has (a no-op); once a
    /// co-tenant parks work on device 0, the epoch migrates rows away:
    ///
    /// ```
    /// use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardCount};
    /// use ftn_fpga::DeviceModel;
    ///
    /// let src = "subroutine saxpy(n, a, x, y)\n  implicit none\n  integer :: n, i\n  real :: a, x(n), y(n)\n  !$omp target parallel do\n  do i = 1, n\n    y(i) = y(i) + a*x(i)\n  end do\n  !$omp end target parallel do\nend subroutine saxpy\n";
    /// let artifacts = ftn_core::Compiler::default().compile_source(src)?;
    /// let mut pool = ClusterMachine::load(&artifacts, &vec![DeviceModel::u280(); 4])?;
    /// let x = pool.host_f32(&[1.0; 4096]);
    /// let sid = pool.open_sharded_session(
    ///     &[("x", x, MapKind::To, Partition::Split { halo: 0 })],
    ///     ShardCount::Fixed(4),
    /// )?;
    /// let report = pool.rebalance_session(sid)?;
    /// assert!(!report.replanned, "balanced pool: nothing to do");
    ///
    /// pool.inject_backlog(0, 1.0); // a second of foreign queue on device 0
    /// let report = pool.rebalance_session(sid)?;
    /// assert!(report.replanned && report.rows_migrated > 0);
    /// assert!(report.shard_rows[0] < 1024, "device 0 shed rows");
    /// pool.close_sharded_session(sid)?;
    /// # Ok::<(), ftn_core::CompileError>(())
    /// ```
    pub fn rebalance_session(&mut self, session: u64) -> Result<RebalanceReport, CompileError> {
        self.rebalance_session_with(session, None)
    }

    /// [`ClusterMachine::rebalance_session`] with an explicit improvement
    /// threshold (old/new predicted makespan, ≥ 1.0) overriding the
    /// session's configured one.
    ///
    /// Synchronous composition of the epoch phases — every phase's device
    /// traffic is waited under this machine before the next begins. A
    /// caller that must not block other sessions runs the same phases with
    /// the lock released between them (see [`ClusterMachine::epoch_begin`]).
    pub fn rebalance_session_with(
        &mut self,
        session: u64,
        threshold: Option<f64>,
    ) -> Result<RebalanceReport, CompileError> {
        match self.epoch_begin(session, threshold)? {
            EpochPhase::Done(report) => Ok(report),
            EpochPhase::Gather(mut ep) => {
                self.epoch_wait(&mut ep);
                self.epoch_reshard(&mut ep);
                self.epoch_wait(&mut ep);
                self.epoch_finish(*ep)
            }
        }
    }

    /// Wait every handle of the epoch's current phase under this machine
    /// (blocking). A failed job aborts the epoch — the remaining handles
    /// are left for the finish drain, exactly as the synchronous path
    /// always behaved. Phased callers park on the pool's
    /// [`crate::pool::CompletionSignal`] instead of calling this.
    pub fn epoch_wait(&mut self, ep: &mut MigrationEpoch) {
        for h in ep.take_handles() {
            if ep.failed() {
                break;
            }
            if let Err(e) = self.wait(h) {
                ep.fail(e);
            }
        }
    }

    /// Phase 1 of a migration epoch: quiesce the session's outstanding
    /// launches, price the current split against a re-weighted candidate,
    /// and — when the predicted gain clears the threshold — take the
    /// session out of the table, re-plan it host-side, and submit the
    /// delta-gather fan-out (owner-changing rows → move buffers). The
    /// caller waits the returned epoch's handles, then drives
    /// [`ClusterMachine::epoch_reshard`] and [`ClusterMachine::epoch_finish`].
    pub fn epoch_begin(
        &mut self,
        session: u64,
        threshold: Option<f64>,
    ) -> Result<EpochPhase, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let threshold = threshold
            .or_else(|| s.opts.auto_rebalance.map(|ar| ar.threshold))
            .unwrap_or(DEFAULT_REBALANCE_THRESHOLD);
        let devices = s.devices.clone();
        // The largest split array prices the decision; a session mapping
        // only replicated/reduced arrays has nothing to re-partition.
        let reference = s
            .env
            .arrays()
            .iter()
            .filter_map(|a| match a.partition {
                Partition::Split { halo } => {
                    let rows: usize = a.slices.iter().map(|sl| sl.range.len).sum();
                    Some((a.name.clone(), rows, a.row_elems, halo))
                }
                _ => None,
            })
            .max_by_key(|&(_, rows, row_elems, _)| rows * row_elems);
        let Some((ref_name, rows, row_elems, halo)) = reference else {
            return Ok(EpochPhase::Done(RebalanceReport {
                session,
                replanned: false,
                predicted_gain: 1.0,
                threshold,
                rows_migrated: 0,
                shard_rows: Vec::new(),
                epoch_seconds: 0.0,
            }));
        };

        // Quiesce: every outstanding shard job's outcome must be applied
        // before backlogs are read or rows move. Outcomes are *not*
        // consumed — completed-but-unwaited reports stay claimable by the
        // caller's launch tickets.
        let outstanding = s.outstanding.clone();
        {
            let mut sp = ftn_trace::span("epoch.quiesce", "epoch");
            sp.arg("session", session);
            sp.arg("outstanding", outstanding.len());
            for job_id in outstanding {
                while self.pending.contains_key(&job_id) {
                    self.process_one_outcome()?;
                }
            }
        }
        // Everything quiesced is done: prune the ledger down to the
        // completed-but-unwaited ids (close still drains those), so a
        // long-lived auto-rebalancing session does not re-walk its entire
        // launch history on every check.
        let keep: Vec<u64> = self
            .sessions
            .get(&session)
            .expect("still present")
            .outstanding
            .iter()
            .copied()
            .filter(|id| self.completed.contains_key(id))
            .collect();
        self.sessions
            .get_mut(&session)
            .expect("still present")
            .outstanding = keep;

        // Effective weights from the backlog snapshot.
        let backlogs = self.est_backlog.clone();
        let models = self.pool.models();
        let s = self.sessions.get(&session).expect("still present");
        let shards = s.env.shards();
        let elements = (rows * row_elems) as u64;
        let share = elements
            .max(1)
            .div_ceil(shards.min(models.len()).max(1) as u64);
        let eff = self.cost_model.effective_weights(
            &models,
            share,
            &backlogs,
            REBALANCE_HORIZON_LAUNCHES,
        );
        let weights: Vec<f64> = devices.iter().map(|&d| eff[d]).collect();

        // Decision: predicted *session* horizon makespan of the current
        // split versus the re-weighted candidate. Each device's session
        // work is scaled by a queue-dilution factor `1 + B_d / (h · t_d)` —
        // the co-tenant's backlog amortized over the horizon as sustained
        // competition — rather than added as a one-shot constant: an
        // additive model would let a backlog much larger than the session's
        // own work dominate both sides of the ratio and freeze the plan in
        // exactly the regime where migrating away helps most.
        let ref_array = s.env.array(&ref_name).expect("reference resolves");
        let old_rows: Vec<usize> = ref_array.slices.iter().map(|sl| sl.range.len).collect();
        let candidate = ShardPlan::partition_weighted(rows, &weights, halo);
        let new_rows: Vec<usize> = candidate.ranges().iter().map(|r| r.len).collect();
        let horizon = REBALANCE_HORIZON_LAUNCHES as f64;
        let predict = |rows_per_shard: &[usize]| -> f64 {
            let mut per_dev = vec![0.0f64; models.len()];
            for (shard, &r) in rows_per_shard.iter().enumerate() {
                let d = devices[shard];
                let est = self
                    .cost_model
                    .estimate_any_seconds(&models[d], (r * row_elems) as u64)
                    .unwrap_or(0.0);
                per_dev[d] += horizon * est;
            }
            for (d, work) in per_dev.iter_mut().enumerate() {
                let t = self
                    .cost_model
                    .estimate_any_seconds(&models[d], share)
                    .unwrap_or(0.0);
                if t > 0.0 {
                    *work *= 1.0 + backlogs[d] / (horizon * t);
                }
            }
            per_dev.iter().cloned().fold(0.0, f64::max)
        };
        let predicted_old = predict(&old_rows);
        let predicted_new = predict(&new_rows);
        let predicted_gain = if predicted_new > 0.0 {
            predicted_old / predicted_new
        } else {
            1.0
        };
        if old_rows == new_rows || predicted_gain < threshold || predicted_gain.is_nan() {
            return Ok(EpochPhase::Done(RebalanceReport {
                session,
                replanned: false,
                predicted_gain,
                threshold,
                rows_migrated: 0,
                shard_rows: old_rows,
                epoch_seconds: 0.0,
            }));
        }

        // Migration epoch. The session is taken out of the table so the
        // epoch can drive the machine; it is reinstated on every path
        // (epoch_finish, or right here when the host-side replan fails).
        let started = std::time::Instant::now();
        let mut epoch_span = ftn_trace::span("epoch.migrate", "epoch");
        epoch_span.arg("session", session);
        epoch_span.arg("predicted_gain", format!("{predicted_gain:.3}"));
        let mut s = self.sessions.remove(&session).expect("still present");

        let pool = self.pool.len();
        // Host-side replan: fresh sub-buffers for the slices whose range
        // changes; unchanged slices (and replicated/reduced arrays) keep
        // their buffers and their device mirrors untouched.
        let replans = match s.env.replan(&mut self.memory, weights) {
            Ok(replans) => replans,
            Err(e) => {
                self.sessions.insert(session, s);
                return Err(CompileError::new("cluster-rebalance", e.to_string()));
            }
        };
        // Register the fresh sub-buffers immediately: even if a transfer
        // below fails, the session's buffer set must stay fully tracked so
        // nothing it references can leak.
        for rp in &replans {
            let a = s.env.array(&rp.name).expect("replanned array resolves");
            for (shard, old) in rp.old_slices.iter().enumerate() {
                if old.is_some() {
                    self.buffers
                        .entry(a.slices[shard].memref.buffer)
                        .or_default();
                }
            }
        }

        // Delta gather: one move buffer per owner-changing row block,
        // fetched from the block's old device. Only these rows cross PCIe.
        let mut rows_migrated = 0u64;
        let mut move_bufs: Vec<Vec<BufferId>> = Vec::with_capacity(replans.len());
        let mut per_device_fetch: Vec<Vec<RowFetch>> = (0..pool).map(|_| Vec::new()).collect();
        let mut alloc_err = None;
        'replans: for rp in &replans {
            let mut bufs = Vec::with_capacity(rp.moves.len());
            for mv in &rp.moves {
                rows_migrated += mv.len as u64;
                let dst = match self.memory.alloc_zeroed(&rp.elem, mv.len * rp.row_elems, 0) {
                    Ok(id) => id,
                    Err(e) => {
                        // Fall through to the common cleanup: the replaced
                        // sub-buffers must still be released below.
                        alloc_err = Some(CompileError::new("cluster-rebalance", e.to_string()));
                        move_bufs.push(bufs);
                        break 'replans;
                    }
                };
                self.buffers.insert(dst, BufState::default());
                let old = rp.old_slices[mv.from_shard]
                    .as_ref()
                    .expect("a move's source slice was replaced");
                per_device_fetch[devices[mv.from_shard]].push(RowFetch {
                    src: old.memref.buffer,
                    dst,
                    start: (mv.start - old.range.mapped_start()) * rp.row_elems,
                    len: mv.len * rp.row_elems,
                    version: 1,
                });
                bufs.push(dst);
            }
            move_bufs.push(bufs);
        }

        // Halo re-seed: every replaced slice's ghost blocks are fetched
        // from their *current owner* rows — the device-resident contents
        // under the old plan — alongside the delta gather. Re-seeding from
        // the caller's open-time arrays (the old behaviour) is stale for
        // any array written between launches.
        let mut halo_inject: Vec<Vec<(usize, usize, BufferId)>> = vec![Vec::new(); replans.len()];
        if alloc_err.is_none() {
            'halos: for (ri, rp) in replans.iter().enumerate() {
                let a = s.env.array(&rp.name).expect("replanned array resolves");
                // Old-plan donors: replaced slices donate from their old
                // sub-buffer, unchanged slices from their current one.
                let donors: Vec<(BufferId, ShardRange)> = rp
                    .old_slices
                    .iter()
                    .zip(&a.slices)
                    .map(|(old, cur)| match old {
                        Some(o) => (o.memref.buffer, o.range),
                        None => (cur.memref.buffer, cur.range),
                    })
                    .collect();
                for (shard, old) in rp.old_slices.iter().enumerate() {
                    if old.is_none() {
                        continue;
                    }
                    let nr = a.slices[shard].range;
                    for (blo, bhi) in [
                        (nr.start - nr.halo_lo, nr.start),
                        (nr.start + nr.len, nr.start + nr.len + nr.halo_hi),
                    ] {
                        for (donor, &(donor_host, dr)) in donors.iter().enumerate() {
                            let (plo, phi) = (blo.max(dr.start), bhi.min(dr.start + dr.len));
                            if phi <= plo {
                                continue;
                            }
                            let len = (phi - plo) * rp.row_elems;
                            let dst = match self.memory.alloc_zeroed(&rp.elem, len, 0) {
                                Ok(id) => id,
                                Err(e) => {
                                    alloc_err =
                                        Some(CompileError::new("cluster-rebalance", e.to_string()));
                                    break 'halos;
                                }
                            };
                            self.buffers.insert(dst, BufState::default());
                            per_device_fetch[devices[donor]].push(RowFetch {
                                src: donor_host,
                                dst,
                                start: (plo - dr.mapped_start()) * rp.row_elems,
                                len,
                                version: 1,
                            });
                            halo_inject[ri].push((
                                shard,
                                (plo - nr.mapped_start()) * rp.row_elems,
                                dst,
                            ));
                        }
                    }
                }
            }
        }
        let mut ep = Box::new(MigrationEpoch {
            session,
            s,
            ref_name,
            threshold,
            predicted_gain,
            replans,
            move_bufs,
            halo_inject,
            rows_migrated,
            handles: Vec::new(),
            failed: None,
            started,
            span: epoch_span,
        });
        match alloc_err {
            Some(e) => ep.failed = Some(e),
            None => {
                // Delta gather fan-out: one row-fetch job per donating
                // device. Submitted here; the caller waits the handles.
                let fetches: Vec<(usize, Vec<RowFetch>)> = per_device_fetch
                    .into_iter()
                    .enumerate()
                    .filter(|(_, rows)| !rows.is_empty())
                    .collect();
                let mut sp = ftn_trace::span("epoch.delta_gather", "epoch");
                sp.arg("devices", fetches.len());
                let (handles, err) =
                    self.fan_out(fetches, |m, device, rows| m.submit_fetch_rows(device, rows));
                ep.handles = handles;
                if let Some(e) = err {
                    ep.failed = Some(e);
                }
            }
        }
        Ok(EpochPhase::Gather(ep))
    }

    /// One batched fan-out: open a batch window, `submit` every
    /// `(index, payload)` item, and flush the window as one message per
    /// device (even when a submit failed — already-buffered jobs are in the
    /// pending ledger and must reach their workers). Returns the submitted
    /// handles plus the first error; the caller waits the handles (or,
    /// after an error, leaves them for its drain).
    fn fan_out<T>(
        &mut self,
        items: impl IntoIterator<Item = (usize, T)>,
        mut submit: impl FnMut(&mut Self, usize, T) -> Result<LaunchHandle, CompileError>,
    ) -> (Vec<LaunchHandle>, Option<CompileError>) {
        self.begin_batch();
        let mut handles = Vec::new();
        let mut submit_err = None;
        for (index, item) in items {
            match submit(self, index, item) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    submit_err = Some(e);
                    break;
                }
            }
        }
        let flushed = self.flush_batch();
        (handles, submit_err.or(flushed.err()))
    }

    /// Phase 2 of a migration epoch (after the delta-gather handles are
    /// waited): rebuild every replaced shard mirror in place — retained
    /// rows device-local, migrated/halo rows spliced from the host — and
    /// submit the reshard fan-out. No-op when a prior phase failed.
    pub fn epoch_reshard(&mut self, ep: &mut MigrationEpoch) {
        if ep.failed.is_some() {
            return;
        }
        if let Err(e) = self.epoch_reshard_inner(ep) {
            ep.fail(e);
        }
    }

    fn epoch_reshard_inner(&mut self, ep: &mut MigrationEpoch) -> Result<(), CompileError> {
        let s = &mut ep.s;
        let replans = &ep.replans;
        let move_bufs = &ep.move_bufs;
        let halo_inject = &ep.halo_inject;
        let devices = s.devices.clone();
        // Restage: build one ReshardSpec per replaced (array, shard) slice.
        let mut per_device: Vec<Vec<ReshardSpec>> =
            (0..self.pool.len()).map(|_| Vec::new()).collect();
        for (ri, (rp, bufs)) in replans.iter().zip(move_bufs).enumerate() {
            let a = s.env.array(&rp.name).expect("replanned array resolves");
            for (shard, old) in rp.old_slices.iter().enumerate() {
                let Some(old) = old else { continue };
                let new = &a.slices[shard];
                let (nr, or_) = (new.range, old.range);
                // Rows owned before and after stay device-local.
                let mut keep = Vec::new();
                let lo = nr.start.max(or_.start);
                let hi = (nr.start + nr.len).min(or_.start + or_.len);
                if hi > lo {
                    keep.push((
                        (lo - nr.mapped_start()) * rp.row_elems,
                        (lo - or_.mapped_start()) * rp.row_elems,
                        (hi - lo) * rp.row_elems,
                    ));
                }
                // Rows gained from other shards splice in from their move
                // buffers; halo ghost rows re-seed from their *current
                // owner rows*, fetched into dedicated move buffers by the
                // delta gather (never from the caller's open-time
                // contents — stale for arrays written between launches).
                let mut inject = Vec::new();
                for (mv, dst_buf) in rp.moves.iter().zip(bufs) {
                    if mv.to_shard == shard {
                        inject.push((
                            (mv.start - nr.mapped_start()) * rp.row_elems,
                            self.memory.get(*dst_buf).clone(),
                        ));
                    }
                }
                for &(hs, dst, buf) in &halo_inject[ri] {
                    if hs == shard {
                        inject.push((dst, self.memory.get(buf).clone()));
                    }
                }
                per_device[devices[shard]].push(ReshardSpec {
                    new_host: new.memref.buffer,
                    old_host: old.memref.buffer,
                    len: nr.mapped_len() * rp.row_elems,
                    keep,
                    inject,
                    version: 1,
                });
            }
        }
        let reshards: Vec<(usize, Vec<ReshardSpec>)> = per_device
            .into_iter()
            .enumerate()
            .filter(|(_, specs)| !specs.is_empty())
            .collect();
        let stats = &mut s.stats;
        let mut sp = ftn_trace::span("epoch.reshard", "epoch");
        sp.arg("devices", reshards.len());
        let (handles, err) = self.fan_out(reshards, |m, device, specs| {
            let t = m.submit_reshard(device, specs)?;
            stats.staged_uploads += t.staged;
            stats.staged_bytes += t.staged_bytes;
            Ok(t.handle)
        });
        ep.handles = handles;
        err.map_or(Ok(()), Err)
    }

    /// Final phase of a migration epoch (after the reshard handles are
    /// waited): drain any epoch jobs still in flight when a phase failed,
    /// release the move buffers and the replaced sub-buffers (host and
    /// device mirrors), fold the epoch into the session/pool statistics,
    /// and put the session back in the table. Returns the epoch's report —
    /// or the failing phase's error, with every epoch buffer released and
    /// the session reinstated regardless.
    pub fn epoch_finish(&mut self, ep: MigrationEpoch) -> Result<RebalanceReport, CompileError> {
        let MigrationEpoch {
            session,
            mut s,
            ref_name,
            threshold,
            predicted_gain,
            replans,
            move_bufs,
            halo_inject,
            rows_migrated,
            handles: _,
            failed,
            started,
            span: mut epoch_span,
        } = ep;
        let halo_bufs: Vec<BufferId> = halo_inject
            .iter()
            .flatten()
            .map(|&(_, _, buf)| buf)
            .collect();

        // A failed fan-out can leave epoch jobs in flight over buffers we
        // are about to free; a recycled id with a pending writeback or
        // in-flight counter would corrupt whatever reuses it. Drain
        // outcomes until every epoch buffer is quiescent (best effort —
        // draining itself fails only when all workers are gone).
        let olds: Vec<BufferId> = replans
            .iter()
            .flat_map(|rp| rp.old_slices.iter().flatten().map(|sl| sl.memref.buffer))
            .collect();
        if failed.is_some() {
            let busy = |m: &ClusterMachine| {
                move_bufs
                    .iter()
                    .flatten()
                    .chain(&halo_bufs)
                    .chain(&olds)
                    .any(|id| m.buffers.get(id).is_some_and(|b| b.in_flight.is_some()))
            };
            while busy(self) {
                if self.process_one_outcome().is_err() {
                    break;
                }
            }
        }

        // Move buffers — the owner-changing rows' and the halo re-seeds' —
        // are epoch-transient on every path (they were never mirrored on a
        // device: row fetches write back without creating mirror entries,
        // and splices carry contents by value).
        for id in move_bufs.iter().flatten().chain(&halo_bufs) {
            self.buffers.remove(id);
            self.memory.free(*id);
        }

        // Free the replaced sub-buffers and their mirrors — on the error
        // path too: the environment already switched to the new slices, so
        // the old ones are unreachable and would otherwise leak (a failed
        // epoch means dead workers; the propagated error is the signal, but
        // pool memory must still balance). Queue order (FIFO per worker)
        // guarantees each eviction lands after the restage that copied
        // retained rows out of the old mirror.
        for id in &olds {
            self.buffers.remove(id);
            self.memory.free(*id);
        }
        self.evict_mirrors(olds);

        let epoch_seconds = started.elapsed().as_secs_f64();
        if failed.is_none() {
            epoch_span.arg("rows_migrated", rows_migrated);
            s.stats.replan_count += 1;
            s.stats.rows_migrated += rows_migrated;
            s.stats.epoch_seconds += epoch_seconds;
            self.replans += 1;
            self.rows_migrated += rows_migrated;
            self.epoch_seconds += epoch_seconds;
            self.metrics.replans.inc();
            self.metrics.rows_migrated.add(rows_migrated);
            self.metrics.epoch.observe_with_exemplar(
                epoch_seconds,
                ftn_trace::current_trace_id(),
                epoch_span.id(),
            );
        }
        drop(epoch_span);
        let shard_rows = s
            .env
            .array(&ref_name)
            .map(|a| a.slices.iter().map(|sl| sl.range.len).collect())
            .unwrap_or_default();
        self.sessions.insert(session, s);
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(RebalanceReport {
            session,
            replanned: true,
            predicted_gain,
            threshold,
            rows_migrated,
            shard_rows,
            epoch_seconds,
        })
    }
}

fn no_session(session: u64) -> String {
    format!("no open session {session}")
}
