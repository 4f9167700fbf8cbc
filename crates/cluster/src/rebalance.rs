//! Re-planning a live session: the rebalance *decision* (price the current
//! split against a backlog-aware candidate) and the epoch-only parts of the
//! migration that follows — taking the session out of the table, the
//! host-side re-plan, and swapping old sub-buffers for new ones. The rows
//! themselves move through the shared row exchange ([`crate::exchange`]).

use std::time::Instant;

use ftn_core::CompileError;
use ftn_interp::BufferId;
use ftn_shard::{Partition, RowTransferPlan, ShardPlan, ShardRange, ShardSlice};

use crate::exchange::{ArrayBlocks, ExchangeLabels, ExchangePhase, RowExchange};
use crate::machine::ClusterMachine;
use crate::sharded::{
    no_session, RebalanceReport, DEFAULT_REBALANCE_THRESHOLD, REBALANCE_HORIZON_LAUNCHES,
};

const EPOCH: ExchangeLabels = ExchangeLabels {
    gather: "epoch.delta_gather",
    apply: ("epoch.reshard", "job.reshard"),
};

impl ClusterMachine {
    /// Re-plan a sharded session against the pool's *current* backlogs —
    /// the dynamic half of the placement ladder. Snapshots each device's
    /// cost-priced queue depth, folds it into the static device weights
    /// ([`ftn_fpga::CostModel::effective_weights`]), and compares the
    /// session's current split against the re-weighted candidate over the
    /// [`REBALANCE_HORIZON_LAUNCHES`] horizon. When the predicted makespan
    /// improvement clears the session's threshold (its
    /// [`crate::AutoRebalance::threshold`], else
    /// [`DEFAULT_REBALANCE_THRESHOLD`]), a **migration epoch** runs:
    ///
    /// 1. **Quiesce** — every shard job in flight completes (its report
    ///    stays with the ticket the caller holds).
    /// 2. **Delta gather** — only the rows that change *devices* are
    ///    fetched from their old devices into move buffers; resident rows
    ///    never leave their device.
    /// 3. **Restage** — each changed shard's mirror is rebuilt on its
    ///    device: rows whose previous owner shares the device (the rows the
    ///    shard retains, and rows gained from a co-located shard) copy
    ///    mirror-to-mirror, the rest splice in from their move buffers, and
    ///    halo ghost rows re-seed from their *current owner rows* the same
    ///    way — never from the caller's open-time contents, which are stale
    ///    for any array written between launches.
    /// 4. **Resume** — the session continues under the new plan; replaced
    ///    sub-buffers are freed on host and devices.
    ///
    /// [`crate::SessionStats`] records `replan_count`, `rows_migrated`, and
    /// `epoch_seconds` for executed epochs; a below-threshold or zero-delta
    /// check is a pure no-op. An epoch that fails mid-way (a dead worker)
    /// rolls the session back to its previous plan — the old mirrors are
    /// only released once the new ones are complete — and returns the
    /// error. Sessions opened with an [`crate::AutoRebalance`] policy
    /// ([`ClusterMachine::open_sharded_session_with`]) run this
    /// automatically every `interval` launches; this entry point serves manual callers (e.g.
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
    /// the lock released between them (see
    /// [`crate::PoolGate::rebalance_phased`]).
    pub fn rebalance_session_with(
        &mut self,
        session: u64,
        threshold: Option<f64>,
    ) -> Result<RebalanceReport, CompileError> {
        let phase = self.epoch_begin(session, threshold)?;
        self.exchange_run(phase)
    }

    /// Quiesce the session's launches in flight, price the current split
    /// against a re-weighted candidate, and — when the predicted gain
    /// clears the threshold — take the session out of the table, re-plan it
    /// host-side, and submit the row exchange's gather.
    pub(crate) fn epoch_begin(
        &mut self,
        session: u64,
        threshold: Option<f64>,
    ) -> Result<ExchangePhase<RebalanceReport>, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let threshold = threshold
            .or_else(|| s.auto_rebalance.map(|ar| ar.threshold))
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
        // A check that moves nothing: the epoch is over before it began.
        let unchanged = |predicted_gain: f64, shard_rows: Vec<usize>| {
            Ok(ExchangePhase::Done(RebalanceReport {
                session,
                replanned: false,
                predicted_gain,
                threshold,
                rows_migrated: 0,
                shard_rows,
                epoch_seconds: 0.0,
            }))
        };
        let Some((ref_name, rows, row_elems, halo)) = reference else {
            return unchanged(1.0, Vec::new());
        };

        // Quiesce: every in-flight shard job's outcome must be applied
        // before backlogs are read or rows move. The reports stay in the
        // cells of the launch tickets the caller holds.
        {
            let mut sp = ftn_trace::span("epoch.quiesce", "epoch");
            sp.arg("session", session);
            let launches = self.pending.values().filter(|p| p.session == Some(session));
            sp.arg("outstanding", launches.count());
            self.quiesce(session)?;
        }

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
            return unchanged(predicted_gain, old_rows);
        }

        // Migration epoch. The session is taken out of the table so the
        // epoch can drive the machine; it is reinstated on every path
        // (the exchange's finish, or right here when the host-side replan fails).
        let started = Instant::now();
        let mut epoch_span = ftn_trace::span("epoch.migrate", "epoch");
        epoch_span.arg("session", session);
        epoch_span.arg("predicted_gain", format!("{predicted_gain:.3}"));
        let mut s = self.sessions.remove(&session).expect("still present");

        // Host-side replan: fresh sub-buffers for the slices whose range
        // changes; unchanged slices (and replicated/reduced arrays) keep
        // their buffers and their device mirrors untouched.
        let old_weights = s.env.weights().to_vec();
        let replans = match s.env.replan(&mut self.memory, weights) {
            Ok(replans) => replans,
            Err(e) => {
                self.sessions.insert(session, s);
                return Err(CompileError::new("cluster-rebalance", e.to_string()));
            }
        };

        // One plan per re-planned array. Rows are donated under the *old*
        // plan: a replaced slice donates from the sub-buffer it is about to
        // lose, an unchanged slice from its current one.
        let mut rows_migrated = 0u64;
        let mut fresh: Vec<BufferId> = Vec::new();
        let mut arrays = Vec::with_capacity(replans.len());
        for rp in &replans {
            let a = s.env.array(&rp.name).expect("replanned array resolves");
            let donors: Vec<&ShardSlice> = (rp.old_slices.iter().zip(&a.slices))
                .map(|(old, cur)| old.as_ref().unwrap_or(cur))
                .collect();
            let old_ranges: Vec<ShardRange> = donors.iter().map(|sl| sl.range).collect();
            let new_ranges: Vec<ShardRange> = a.slices.iter().map(|sl| sl.range).collect();
            let replaced = rp.old_slices.iter().zip(&a.slices);
            let replaced = replaced.filter(|(old, _)| old.is_some());
            fresh.extend(replaced.map(|(_, cur)| cur.memref.buffer));
            rows_migrated += rp.moves.iter().map(|mv| mv.len as u64).sum::<u64>();
            arrays.push(ArrayBlocks {
                donors: donors.iter().map(|sl| sl.memref.buffer).collect(),
                recipients: a.slices.iter().map(|sl| sl.memref.buffer).collect(),
                plan: RowTransferPlan::replan(&old_ranges, &new_ranges, rp.row_elems),
            });
        }
        // The epoch's tail. The session is out of the table while rows move
        // (nothing can launch against it); this puts it back on every path.
        let finish =
            move |m: &mut ClusterMachine, span: &mut ftn_trace::Span, epoch_seconds, ok| {
                if ok {
                    // The new mirrors are complete: free the replaced
                    // sub-buffers and their mirrors. Queue order (FIFO per
                    // worker) guarantees each eviction lands after the restage
                    // that copied retained rows out of the old mirror.
                    let olds = replans.iter().flat_map(|rp| &rp.old_slices).flatten();
                    m.drop_buffers(olds.map(|sl| sl.memref.buffer).collect());
                    span.arg("rows_migrated", rows_migrated);
                    s.stats.replan_count += 1;
                    s.stats.rows_migrated += rows_migrated;
                    s.stats.epoch_seconds += epoch_seconds;
                    m.replans += 1;
                    m.rows_migrated += rows_migrated;
                    m.epoch_seconds += epoch_seconds;
                    let trace = ftn_trace::current_trace_id();
                    m.metrics
                        .epoch
                        .observe_with_exemplar(epoch_seconds, trace, span.id());
                } else {
                    // Roll back: the old mirrors were never touched (an exchange
                    // only reads them), so the session resumes under its
                    // previous plan and the half-built new sub-buffers go.
                    let fresh = s.env.undo_replan(replans, old_weights);
                    m.drop_buffers(fresh);
                }
                let shard_rows = s.env.array(&ref_name).map_or_else(Vec::new, |a| {
                    a.slices.iter().map(|sl| sl.range.len).collect()
                });
                m.sessions.insert(session, s);
                RebalanceReport {
                    session,
                    replanned: true,
                    predicted_gain,
                    threshold,
                    rows_migrated,
                    shard_rows,
                    epoch_seconds,
                }
            };
        let mut ex = RowExchange::new(session, &EPOCH, epoch_span, started, fresh, finish);
        self.exchange_gather(&mut ex, &devices, arrays);
        Ok(ExchangePhase::Run(ex))
    }
}
