//! Leading-dimension partition plans: how one mapped array is split into
//! per-device shards, with optional halo rows for stencil-style kernels.
//!
//! A plan is computed per array from its leading-dim extent; shard `i` of
//! every array in a sharded environment corresponds to the same device. The
//! partition is the balanced contiguous-block scheme `target teams
//! distribute` uses for its outermost loop: the first `rows % shards` shards
//! own one extra row, so shard sizes differ by at most one.

use crate::reduce::ReduceOp;

/// How one mapped array is distributed across the shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Partition along the leading dimension into contiguous blocks; each
    /// shard's mapped slice is its owned block extended by up to `halo` rows
    /// on each side (clamped at the array ends). Halos are read-only ghost
    /// rows: the gather writes only owned rows back.
    Split {
        /// Read-only ghost rows mapped on each side of the owned block.
        halo: usize,
    },
    /// Every shard maps the full array (read-only broadcast data such as
    /// coefficient tables).
    Replicated,
    /// Every shard gets a private copy combined element-wise at gather time
    /// (scalar/vector reduction targets). Shard 0 starts from the real host
    /// contents, later shards from the operation's identity, so a
    /// single-shard environment is exactly the unsharded one.
    Reduced(ReduceOp),
}

impl Partition {
    /// Parse a serve-API partition string: `split` (with a separate halo
    /// field), `replicated`, or a reduction op (`sum` | `min` | `max`).
    pub fn parse(s: &str, halo: usize) -> Option<Partition> {
        match s {
            "split" => Some(Partition::Split { halo }),
            "replicated" | "broadcast" => Some(Partition::Replicated),
            other => ReduceOp::parse(other).map(Partition::Reduced),
        }
    }

    /// The canonical name (`"split"` / `"replicated"` / the reduce op's).
    pub fn name(&self) -> &'static str {
        match self {
            Partition::Split { .. } => "split",
            Partition::Replicated => "replicated",
            Partition::Reduced(op) => op.name(),
        }
    }
}

/// One shard's slice of a partitioned array, in leading-dim rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// First owned row.
    pub start: usize,
    /// Owned rows (written back at gather).
    pub len: usize,
    /// Halo rows mapped below `start`.
    pub halo_lo: usize,
    /// Halo rows mapped past `start + len`.
    pub halo_hi: usize,
}

impl ShardRange {
    /// First mapped row (owned block extended by the low halo).
    pub fn mapped_start(&self) -> usize {
        self.start - self.halo_lo
    }

    /// Mapped rows (owned block plus both halos).
    pub fn mapped_len(&self) -> usize {
        self.halo_lo + self.len + self.halo_hi
    }
}

/// One maximal contiguous block of leading-dim rows that changes owners
/// between two plans over the same array (see [`ShardPlan::delta`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowMove {
    /// Shard owning the block under the old plan.
    pub from_shard: usize,
    /// Shard owning the block under the new plan.
    pub to_shard: usize,
    /// First global row of the block.
    pub start: usize,
    /// Rows in the block.
    pub len: usize,
}

/// The partition of one array's leading dimension into shard ranges.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    rows: usize,
    ranges: Vec<ShardRange>,
}

impl ShardPlan {
    /// Balanced contiguous partition of `rows` into `shards` blocks with up
    /// to `halo` ghost rows on each side of every block. The effective shard
    /// count is clamped to `rows` (no empty shards) and to at least one.
    pub fn partition(rows: usize, shards: usize, halo: usize) -> ShardPlan {
        let n = shards.max(1).min(rows.max(1));
        let lens = (0..n).map(|i| rows / n + usize::from(i < rows % n));
        ShardPlan::from_lens(rows, lens, halo)
    }

    /// Throughput-weighted contiguous partition of `rows`: shard `i` owns a
    /// block proportional to `weights[i]`, so on a heterogeneous pool a 2×
    /// faster device gets ~2× the rows. Apportionment is largest-remainder
    /// over `rows - n` after reserving one row per shard, which keeps every
    /// shard non-empty (when `rows ≥ shards`) and — crucially — reproduces
    /// [`ShardPlan::partition`] *exactly* when all weights are equal (equal
    /// quotas floor alike, and the leftover rows go to the lowest shard
    /// indices), so a homogeneous pool sees the identical plan it always
    /// had. Non-finite or non-positive weights degrade to the uniform plan.
    /// The shard count is `weights.len()`, clamped to `rows` like
    /// [`ShardPlan::partition`].
    ///
    /// ```
    /// use ftn_shard::ShardPlan;
    /// // A 2× faster first device owns half the rows.
    /// let plan = ShardPlan::partition_weighted(100, &[2.0, 1.0, 1.0], 0);
    /// let rows: Vec<usize> = plan.ranges().iter().map(|r| r.len).collect();
    /// assert_eq!(rows, vec![50, 25, 25]);
    /// // Equal weights reproduce the uniform plan bit-exactly.
    /// let uniform = ShardPlan::partition(100, 3, 0);
    /// let weighted = ShardPlan::partition_weighted(100, &[1.0; 3], 0);
    /// assert_eq!(uniform.ranges(), weighted.ranges());
    /// ```
    pub fn partition_weighted(rows: usize, weights: &[f64], halo: usize) -> ShardPlan {
        let n = weights.len().max(1).min(rows.max(1));
        // (`weights.len() < n` covers the empty-weights case: n is 1 there;
        // `rows == 0` has no row to reserve per shard.)
        let invalid = weights.len() < n
            || rows == 0
            || weights[..n].iter().any(|w| !w.is_finite() || *w <= 0.0);
        if invalid {
            return ShardPlan::partition(rows, n, halo);
        }
        let extra = rows - n;
        let total: f64 = weights[..n].iter().sum();
        let mut lens = vec![1usize; n];
        let mut assigned = 0usize;
        let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(n);
        for (i, w) in weights[..n].iter().enumerate() {
            let quota = extra as f64 * w / total;
            let floor = (quota.floor() as usize).min(extra - assigned);
            lens[i] += floor;
            assigned += floor;
            fractions.push((i, quota - quota.floor()));
        }
        // Hand the leftover rows to the largest fractional remainders,
        // lowest shard index first on ties — fully deterministic.
        fractions.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for k in 0..(extra - assigned) {
            lens[fractions[k % n].0] += 1;
        }
        ShardPlan::from_lens(rows, lens, halo)
    }

    /// Lay per-shard owned lengths (summing to `rows`) out as contiguous
    /// ranges, each extended by up to `halo` ghost rows clamped at the
    /// array ends — the one place halo clamping is written.
    fn from_lens(rows: usize, lens: impl IntoIterator<Item = usize>, halo: usize) -> ShardPlan {
        let mut start = 0usize;
        let ranges = lens
            .into_iter()
            .map(|len| {
                let range = ShardRange {
                    start,
                    len,
                    halo_lo: halo.min(start),
                    halo_hi: halo.min(rows - (start + len)),
                };
                start += len;
                range
            })
            .collect();
        ShardPlan { rows, ranges }
    }

    /// Diff two plans over the same `rows`: the maximal contiguous row
    /// blocks whose *owning* shard differs, in ascending row order. Halo
    /// ghost rows are not compared. Identical plans yield an empty delta.
    /// No session re-plans (a session keeps the split it opened with); the
    /// diff is kept as a measured primitive of the layered benchmark
    /// (`shard.delta_us`).
    ///
    /// ```
    /// use ftn_shard::ShardPlan;
    /// let old = ShardPlan::partition(100, 4, 0);                     // 25 rows each
    /// let new = ShardPlan::partition_weighted(100, &[3.0, 1.0, 1.0, 1.0], 0);
    /// let moves = ShardPlan::delta(&old, &new);
    /// // Shard 0 grew: the rows it gained flow in from its neighbour, and
    /// // every later boundary shifts down by a block.
    /// let gained: usize = moves.iter().filter(|m| m.to_shard == 0).map(|m| m.len).sum();
    /// assert_eq!(gained, new.ranges()[0].len - old.ranges()[0].len);
    /// assert!(ShardPlan::delta(&old, &old).is_empty());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the plans partition different row counts.
    pub fn delta(old: &ShardPlan, new: &ShardPlan) -> Vec<RowMove> {
        assert_eq!(old.rows, new.rows, "plans must partition the same rows");
        let mut moves = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let mut row = 0usize;
        while row < old.rows {
            while old.ranges[i].start + old.ranges[i].len <= row {
                i += 1;
            }
            while new.ranges[j].start + new.ranges[j].len <= row {
                j += 1;
            }
            // The next boundary of either plan ends this maximal segment.
            let end = (old.ranges[i].start + old.ranges[i].len)
                .min(new.ranges[j].start + new.ranges[j].len);
            if i != j {
                moves.push(RowMove {
                    from_shard: i,
                    to_shard: j,
                    start: row,
                    len: end - row,
                });
            }
            row = end;
        }
        moves
    }

    /// Rows of the partitioned dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Effective shard count (≤ the requested count when `rows` is smaller).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The per-shard ranges, in shard order (a contiguous cover of
    /// [`ShardPlan::rows`]).
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_a_balanced_disjoint_cover() {
        for rows in [1usize, 2, 3, 7, 100, 1003] {
            for shards in 1usize..=6 {
                let plan = ShardPlan::partition(rows, shards, 0);
                assert_eq!(plan.shard_count(), shards.min(rows));
                let mut next = 0usize;
                let mut max_len = 0usize;
                let mut min_len = usize::MAX;
                for r in plan.ranges() {
                    assert_eq!(r.start, next, "contiguous cover");
                    assert!(r.len > 0, "no empty shards");
                    next = r.start + r.len;
                    max_len = max_len.max(r.len);
                    min_len = min_len.min(r.len);
                }
                assert_eq!(next, rows, "covers every row");
                assert!(max_len - min_len <= 1, "balanced to within one row");
            }
        }
    }

    #[test]
    fn halos_extend_but_clamp_at_array_ends() {
        let plan = ShardPlan::partition(10, 3, 2);
        let r = plan.ranges();
        // Shards own 4/3/3 rows.
        assert_eq!((r[0].start, r[0].len), (0, 4));
        assert_eq!((r[1].start, r[1].len), (4, 3));
        assert_eq!((r[2].start, r[2].len), (7, 3));
        // First shard has no low halo (clamped), full high halo.
        assert_eq!((r[0].halo_lo, r[0].halo_hi), (0, 2));
        assert_eq!(r[0].mapped_start(), 0);
        assert_eq!(r[0].mapped_len(), 6);
        // Middle shard has both halos.
        assert_eq!((r[1].halo_lo, r[1].halo_hi), (2, 2));
        assert_eq!(r[1].mapped_start(), 2);
        assert_eq!(r[1].mapped_len(), 7);
        // Last shard's high halo is clamped.
        assert_eq!((r[2].halo_lo, r[2].halo_hi), (2, 0));
        assert_eq!(r[2].mapped_len(), 5);
        // A huge halo degenerates to full replication of the mapped slice.
        let plan = ShardPlan::partition(4, 2, 100);
        assert_eq!(plan.ranges()[0].mapped_len(), 4);
        assert_eq!(plan.ranges()[1].mapped_len(), 4);
    }

    #[test]
    fn degenerate_shapes() {
        // More shards than rows: clamped, still a cover.
        let plan = ShardPlan::partition(2, 5, 0);
        assert_eq!(plan.shard_count(), 2);
        // Zero rows: one empty shard so the environment stays well-formed.
        let plan = ShardPlan::partition(0, 3, 1);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.ranges()[0].mapped_len(), 0);
    }

    /// Shared invariants of any plan: sorted contiguous cover, no empty
    /// shard unless `rows < shards`.
    fn assert_cover(plan: &ShardPlan, rows: usize, shards: usize) {
        assert_eq!(plan.shard_count(), shards.min(rows.max(1)).max(1));
        let mut next = 0usize;
        for r in plan.ranges() {
            assert_eq!(r.start, next, "contiguous cover");
            assert!(r.len > 0 || rows == 0, "no empty shards");
            next = r.start + r.len;
        }
        assert_eq!(next, rows, "covers every row");
    }

    #[test]
    fn equal_weights_reproduce_the_uniform_plan_exactly() {
        for rows in [0usize, 1, 2, 3, 7, 10, 100, 1003, 65536] {
            for shards in (1usize..=6).chain([7, 16, 64]) {
                for halo in [0usize, 1, 2] {
                    let uniform = ShardPlan::partition(rows, shards, halo);
                    // Whatever the common value — including ones whose sums
                    // round, underflow or overflow — no dispatch, only the
                    // apportionment arithmetic, makes these agree.
                    for w in [1.0, 0.37, 3.3e7, 1e-300, 1e308] {
                        let weighted = ShardPlan::partition_weighted(rows, &vec![w; shards], halo);
                        assert_eq!(
                            uniform.ranges(),
                            weighted.ranges(),
                            "rows={rows} shards={shards} halo={halo} w={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_partition_is_proportional_and_covers() {
        // 2:1:1 over 100 rows: 50/25/25.
        let plan = ShardPlan::partition_weighted(100, &[2.0, 1.0, 1.0], 0);
        assert_cover(&plan, 100, 3);
        let lens: Vec<usize> = plan.ranges().iter().map(|r| r.len).collect();
        assert_eq!(lens, vec![50, 25, 25]);
        // Non-divisible rows: leftovers go to the largest remainders.
        let plan = ShardPlan::partition_weighted(10, &[2.0, 1.0, 1.0], 0);
        assert_cover(&plan, 10, 3);
        let lens: Vec<usize> = plan.ranges().iter().map(|r| r.len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert!(lens[0] >= lens[1] && lens[0] >= lens[2], "{lens:?}");
        // A heavily skewed pool still leaves no shard empty.
        let plan = ShardPlan::partition_weighted(5, &[100.0, 1.0, 1.0, 1.0], 0);
        assert_cover(&plan, 5, 4);
        assert!(plan.ranges().iter().all(|r| r.len >= 1));
        assert_eq!(plan.ranges()[0].len, 2, "fast shard takes the slack");
    }

    #[test]
    fn weighted_partition_clamps_and_degrades_like_uniform() {
        // Fewer rows than weights: clamped, still a cover.
        let plan = ShardPlan::partition_weighted(2, &[3.0, 2.0, 1.0, 1.0, 1.0], 0);
        assert_eq!(plan.shard_count(), 2);
        assert_cover(&plan, 2, 5);
        // Invalid weights degrade to the uniform plan.
        for bad in [
            vec![1.0, 0.0, 1.0],
            vec![1.0, -2.0, 1.0],
            vec![1.0, f64::NAN, 1.0],
            vec![1.0, f64::INFINITY, 1.0],
        ] {
            let plan = ShardPlan::partition_weighted(10, &bad, 1);
            assert_eq!(
                plan.ranges(),
                ShardPlan::partition(10, 3, 1).ranges(),
                "{bad:?}"
            );
        }
        // Empty weights behave like one shard; zero rows like partition.
        assert_eq!(ShardPlan::partition_weighted(7, &[], 0).shard_count(), 1);
        let plan = ShardPlan::partition_weighted(0, &[2.0, 1.0], 1);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.ranges()[0].mapped_len(), 0);
        // Halos clamp at the array ends exactly as in the uniform plan.
        let plan = ShardPlan::partition_weighted(10, &[2.0, 1.0, 1.0], 2);
        let r = plan.ranges();
        assert_eq!((r[0].halo_lo, r[0].halo_hi), (0, 2));
        assert_eq!(r[2].halo_hi, 0);
    }

    #[test]
    fn delta_is_empty_for_identical_plans_and_complete_for_changed_ones() {
        for rows in [4usize, 10, 97, 1003] {
            for shards in 1usize..=4 {
                let plan = ShardPlan::partition(rows, shards, 1);
                assert!(ShardPlan::delta(&plan, &plan).is_empty());
            }
        }
        // 25/25/25/25 → 49/17/17/17: each boundary shifts by one block.
        let old = ShardPlan::partition(100, 4, 0);
        let new = ShardPlan::partition_weighted(100, &[3.0, 1.0, 1.0, 1.0], 0);
        let moves = ShardPlan::delta(&old, &new);
        assert_eq!(
            moves,
            vec![
                RowMove {
                    from_shard: 1,
                    to_shard: 0,
                    start: 25,
                    len: 24
                },
                RowMove {
                    from_shard: 2,
                    to_shard: 1,
                    start: 50,
                    len: 16
                },
                RowMove {
                    from_shard: 3,
                    to_shard: 2,
                    start: 75,
                    len: 8
                },
            ]
        );
        // The delta, applied to the old owner map, reproduces the new one.
        for rows in [7usize, 64, 101] {
            let old = ShardPlan::partition_weighted(rows, &[1.0, 2.0, 1.0], 0);
            let new = ShardPlan::partition_weighted(rows, &[4.0, 1.0, 1.0], 0);
            let mut owner: Vec<usize> = Vec::new();
            for (s, r) in old.ranges().iter().enumerate() {
                owner.extend(std::iter::repeat_n(s, r.len));
            }
            for m in ShardPlan::delta(&old, &new) {
                for o in &mut owner[m.start..m.start + m.len] {
                    assert_eq!(*o, m.from_shard, "move source owns the row");
                    *o = m.to_shard;
                }
            }
            for (s, r) in new.ranges().iter().enumerate() {
                for (row, o) in owner.iter().enumerate().skip(r.start).take(r.len) {
                    assert_eq!(*o, s, "rows={rows} row {row}");
                }
            }
        }
    }

    #[test]
    fn partition_parse() {
        assert_eq!(
            Partition::parse("split", 2),
            Some(Partition::Split { halo: 2 })
        );
        assert_eq!(
            Partition::parse("replicated", 0),
            Some(Partition::Replicated)
        );
        assert_eq!(
            Partition::parse("sum", 0),
            Some(Partition::Reduced(ReduceOp::Sum))
        );
        assert_eq!(Partition::parse("nope", 0), None);
        assert_eq!(Partition::Split { halo: 1 }.name(), "split");
        assert_eq!(Partition::Reduced(ReduceOp::Max).name(), "max");
    }
}
