//! [`RowTransferPlan`] — "move these row blocks between shard owners" as
//! pure data. The inter-device data movement of a live sharded session is
//! one of these plans: an inter-launch halo refresh re-seeds ghost rows from
//! their owners ([`RowTransferPlan::ghost_blocks`]). The plan speaks shard
//! indices and element offsets only;
//! the cluster layer resolves shards to buffers and devices and picks the
//! transport per block (same device ⇒ mirror-to-mirror copy, different
//! device ⇒ host bounce).

use crate::plan::ShardRange;

/// One contiguous element block copied from the donor shard's mapped buffer
/// into the recipient shard's mapped buffer. Offsets and length are in
/// elements (rows × the array's elements per row) relative to each buffer's
/// first mapped element. The donor always *owns* the rows it donates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowBlock {
    /// Shard whose buffer holds the authoritative copy of the rows.
    pub donor_shard: usize,
    /// Shard whose buffer receives them.
    pub recipient_shard: usize,
    /// First element of the block within the donor's mapped buffer.
    pub src_elem: usize,
    /// First element of the block within the recipient's mapped buffer.
    pub dst_elem: usize,
    /// Elements in the block.
    pub len: usize,
}

/// The row blocks one array contributes to an exchange, grouped by
/// recipient shard in ascending order. Destination blocks never overlap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowTransferPlan {
    /// The blocks to copy; order carries no dependency (sources are owned
    /// rows, destinations are ghost rows).
    pub blocks: Vec<RowBlock>,
}

impl RowTransferPlan {
    /// Ghost-row re-seeds: for every shard of `ranges`, one block per owner
    /// of each of its two halo intervals. A ghost interval wider than its
    /// neighbour splits across several owners, and every ghost row is
    /// covered exactly once.
    pub fn ghost_blocks(ranges: &[ShardRange], row_elems: usize) -> RowTransferPlan {
        let mut plan = RowTransferPlan::default();
        for (shard, r) in ranges.iter().enumerate() {
            plan.ghosts(shard, r, ranges, row_elems);
        }
        plan
    }

    /// The low and high halo intervals of recipient `shard`.
    fn ghosts(&mut self, shard: usize, r: &ShardRange, donors: &[ShardRange], row_elems: usize) {
        let owned_end = r.start + r.len;
        self.cover(shard, r, r.mapped_start(), r.start, donors, row_elems);
        self.cover(
            shard,
            r,
            owned_end,
            owned_end + r.halo_hi,
            donors,
            row_elems,
        );
    }

    /// Push one block per donor owning part of global rows `lo..hi` of
    /// recipient `shard` (whose range is `r`) — the one place a row
    /// interval is intersected with owner ranges.
    fn cover(
        &mut self,
        shard: usize,
        r: &ShardRange,
        lo: usize,
        hi: usize,
        donors: &[ShardRange],
        row_elems: usize,
    ) {
        for (donor, d) in donors.iter().enumerate() {
            let (plo, phi) = (lo.max(d.start), hi.min(d.start + d.len));
            if phi > plo {
                self.blocks.push(RowBlock {
                    donor_shard: donor,
                    recipient_shard: shard,
                    src_elem: (plo - d.mapped_start()) * row_elems,
                    dst_elem: (plo - r.mapped_start()) * row_elems,
                    len: (phi - plo) * row_elems,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use proptest::prelude::*;

    /// Ghost rows of the model buffers start out poisoned: a plan that read
    /// a donor's ghost rows (instead of rows the donor owns) would copy the
    /// poison into the result.
    const STALE: f32 = -1.0;

    /// Per-shard mapped buffers of `global` under `ranges`, owned rows
    /// current and ghost rows stale.
    fn scatter(global: &[f32], ranges: &[ShardRange], row_elems: usize) -> Vec<Vec<f32>> {
        ranges
            .iter()
            .map(|r| {
                let mut buf = vec![STALE; r.mapped_len() * row_elems];
                let (lo, len) = (r.halo_lo * row_elems, r.len * row_elems);
                buf[lo..lo + len]
                    .copy_from_slice(&global[r.start * row_elems..r.start * row_elems + len]);
                buf
            })
            .collect()
    }

    /// Copy every block `src → dst`, counting how often each destination
    /// element is written.
    fn apply(plan: &RowTransferPlan, src: &[Vec<f32>], dst: &mut [Vec<f32>]) -> Vec<Vec<u32>> {
        let mut hits: Vec<Vec<u32>> = dst.iter().map(|b| vec![0; b.len()]).collect();
        for b in &plan.blocks {
            let block = &src[b.donor_shard][b.src_elem..b.src_elem + b.len];
            dst[b.recipient_shard][b.dst_elem..b.dst_elem + b.len].copy_from_slice(block);
            for h in &mut hits[b.recipient_shard][b.dst_elem..b.dst_elem + b.len] {
                *h += 1;
            }
        }
        hits
    }

    fn mapped<'a>(global: &'a [f32], r: &ShardRange, row_elems: usize) -> &'a [f32] {
        &global[r.mapped_start() * row_elems..(r.mapped_start() + r.mapped_len()) * row_elems]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn plans_reproduce_the_global_array_on_a_vec_model(
            // Half the cases use tiny arrays, where one- and two-row shards
            // make halos wider than their neighbours.
            rows in prop_oneof![1usize..=48, 1usize..=4096],
            row_elems in 1usize..=3,
            halo in 0usize..=3,
            shards in 1usize..=16,
            weights in proptest::collection::vec(0.05f64..20.0, 16..17),
        ) {
            let shards = shards.min(rows);
            let global: Vec<f32> = (0..rows * row_elems).map(|i| i as f32).collect();
            let plan = ShardPlan::partition_weighted(rows, &weights[..shards], halo);
            let ranges = plan.ranges();

            // Halo refresh: afterwards every buffer equals its mapped slice
            // of the global array, and exactly the ghost elements were
            // written, once each (ghosts wider than a neighbour included).
            let mut bufs = scatter(&global, ranges, row_elems);
            let donors = bufs.clone();
            let ghosts = RowTransferPlan::ghost_blocks(ranges, row_elems);
            let hits = apply(&ghosts, &donors, &mut bufs);
            for (s, r) in ranges.iter().enumerate() {
                prop_assert_eq!(&bufs[s][..], mapped(&global, r, row_elems), "refresh shard {}", s);
                let owned = r.halo_lo * row_elems..(r.halo_lo + r.len) * row_elems;
                for (i, &h) in hits[s].iter().enumerate() {
                    prop_assert_eq!(h, u32::from(!owned.contains(&i)), "shard {} elem {}", s, i);
                }
            }
        }
    }
}
