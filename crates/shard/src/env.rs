//! [`ShardedEnvironment`] — one `target data` environment whose arrays span
//! several devices: each mapped array is scattered into per-shard host
//! sub-buffers at map time and reassembled (concatenate owned rows, or
//! reduce private copies) at gather time.
//!
//! A shard's buffer for an array is its slice: there is one record per
//! shard buffer, the [`ShardSlice`] in [`ShardedArray::slices`]. The
//! environment is purely a host-side data plane: device residency and
//! transfers are the pool's business (see `ftn_cluster::sharded`).

use ftn_interp::{Buffer, BufferId, InterpError, MemRefVal, Memory, RtValue};

use crate::plan::{Partition, ShardPlan, ShardRange};

/// One shard's sub-buffer of a mapped array.
#[derive(Clone, Debug)]
pub struct ShardSlice {
    /// The shard-local host buffer (leading dim = mapped rows).
    pub memref: MemRefVal,
    /// Which rows of the global array this slice covers.
    pub range: ShardRange,
}

/// One array mapped into the sharded environment.
#[derive(Clone, Debug)]
pub struct ShardedArray {
    /// The name the array was mapped under.
    pub name: String,
    /// The caller's full array.
    pub global: MemRefVal,
    /// How the array distributes across the shards.
    pub partition: Partition,
    /// Elements per leading-dim row (product of trailing extents).
    pub row_elems: usize,
    /// One slice per shard, in shard order.
    pub slices: Vec<ShardSlice>,
}

/// See module docs.
pub struct ShardedEnvironment {
    shards: usize,
    /// Per-shard split weight (uniform unless built with
    /// [`ShardedEnvironment::weighted`]); every `Split` array's plan is
    /// apportioned by these.
    weights: Vec<f64>,
    arrays: Vec<ShardedArray>,
}

impl ShardedEnvironment {
    /// An environment of `shards` uniformly-weighted shards.
    pub fn new(shards: usize) -> ShardedEnvironment {
        ShardedEnvironment::weighted(vec![1.0; shards.max(1)])
    }

    /// A sharded environment whose `Split` arrays are partitioned
    /// proportionally to `weights` (one weight per shard — typically the
    /// predicted throughput of the device the shard is placed on). Equal
    /// weights reproduce [`ShardedEnvironment::new`] exactly.
    pub fn weighted(weights: Vec<f64>) -> ShardedEnvironment {
        let weights = if weights.is_empty() {
            vec![1.0]
        } else {
            weights
        };
        ShardedEnvironment {
            shards: weights.len(),
            arrays: Vec::new(),
            weights,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-shard split weights (all ones for an unweighted environment).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Every mapped array, in map order.
    pub fn arrays(&self) -> &[ShardedArray] {
        &self.arrays
    }

    /// The mapped array registered under `name`, if any.
    pub fn array(&self, name: &str) -> Option<&ShardedArray> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Scatter `global` into per-shard sub-buffers. Split arrays must have
    /// at least `shards` leading-dim rows — the session layer clamps the
    /// shard count before building the environment.
    pub fn map(
        &mut self,
        memory: &mut Memory,
        name: &str,
        global: &MemRefVal,
        partition: Partition,
    ) -> Result<(), InterpError> {
        if self.array(name).is_some() {
            return Err(InterpError::new(format!(
                "array '{name}' is already mapped in this sharded environment"
            )));
        }
        let rows = global.shape.first().copied().unwrap_or(1).max(0) as usize;
        let row_elems: usize = global.shape[1.min(global.shape.len())..]
            .iter()
            .product::<i64>()
            .max(1) as usize;

        let ranges: Vec<ShardRange> = match partition {
            Partition::Split { halo } => {
                let plan = ShardPlan::partition_weighted(rows, &self.weights, halo);
                if plan.shard_count() != self.shards {
                    return Err(InterpError::new(format!(
                        "array '{name}' has {rows} leading-dim rows, fewer than {} shards",
                        self.shards
                    )));
                }
                plan.ranges().to_vec()
            }
            Partition::Replicated | Partition::Reduced(_) => {
                let full = ShardRange {
                    start: 0,
                    len: rows,
                    halo_lo: 0,
                    halo_hi: 0,
                };
                vec![full; self.shards]
            }
        };

        // Compute every slice's contents before allocating anything, so a
        // bad shape (slice out of the buffer's bounds) fails without leaking
        // partially-built sub-buffers.
        let mut prepared = Vec::with_capacity(self.shards);
        for (shard, range) in ranges.into_iter().enumerate() {
            let contents = match (&partition, shard) {
                // Reduced copies beyond shard 0 start from the identity so
                // the combined result folds each shard's contribution into
                // the caller's initial contents exactly once.
                (Partition::Reduced(op), s) if s > 0 => op.identity_like(memory.get(global.buffer)),
                _ => slice_of(
                    memory.get(global.buffer),
                    range.mapped_start() * row_elems,
                    range.mapped_len() * row_elems,
                )?,
            };
            prepared.push((range, contents));
        }

        let slices = (prepared.into_iter())
            .map(|(range, contents)| alloc_slice(memory, global, range, contents))
            .collect();
        self.arrays.push(ShardedArray {
            name: name.to_string(),
            global: global.clone(),
            partition,
            row_elems,
            slices,
        });
        Ok(())
    }

    /// Shard `shard`'s sub-array of the array mapped under `name`.
    pub fn shard_value(&self, shard: usize, name: &str) -> Option<RtValue> {
        let slice = self.array(name)?.slices.get(shard)?;
        Some(RtValue::MemRef(slice.memref.clone()))
    }

    /// Leading-dim rows mapped on `shard` for `name` (owned rows plus halos)
    /// — the rebased trip count / loop bound of a per-shard kernel launch.
    pub fn shard_extent(&self, shard: usize, name: &str) -> Option<i64> {
        let a = self.array(name)?;
        a.slices.get(shard).map(|s| s.range.mapped_len() as i64)
    }

    /// Every shard sub-buffer of every mapped array.
    pub fn buffer_ids(&self) -> Vec<BufferId> {
        self.arrays
            .iter()
            .flat_map(|a| a.slices.iter().map(|s| s.memref.buffer))
            .collect()
    }

    /// Reassemble the global array `name` from its shard sub-buffers:
    /// * `Split` — concatenate owned rows (halo rows are discarded),
    /// * `Reduced` — fold the private copies in shard order,
    /// * `Replicated` — an error: replicated arrays are read-only broadcast
    ///   data and have no single writer to gather from.
    pub fn gather(&self, memory: &mut Memory, name: &str) -> Result<(), InterpError> {
        let a = self
            .array(name)
            .ok_or_else(|| InterpError::new(format!("gather of unmapped array '{name}'")))?;
        match &a.partition {
            Partition::Split { .. } => {
                // The global array is lifted out of memory while it is
                // written, so owned rows copy straight from the slices.
                let empty = Buffer::I1(Vec::new());
                let mut global = std::mem::replace(memory.get_mut(a.global.buffer), empty);
                let copied = a.slices.iter().try_for_each(|slice| {
                    copy_elems(
                        &mut global,
                        slice.range.start * a.row_elems,
                        memory.get(slice.memref.buffer),
                        slice.range.halo_lo * a.row_elems,
                        slice.range.len * a.row_elems,
                    )
                });
                *memory.get_mut(a.global.buffer) = global;
                copied?;
            }
            Partition::Reduced(op) => {
                let mut acc = memory.get(a.slices[0].memref.buffer).clone();
                for slice in &a.slices[1..] {
                    op.combine(&mut acc, memory.get(slice.memref.buffer))
                        .map_err(InterpError::new)?;
                }
                copy_elems(memory.get_mut(a.global.buffer), 0, &acc, 0, acc.len())?;
            }
            Partition::Replicated => {
                return Err(InterpError::new(format!(
                    "array '{name}' is replicated (read-only); it cannot be gathered"
                )));
            }
        }
        Ok(())
    }
}

/// Allocate `contents` as the sub-buffer of `global` covering `range`.
fn alloc_slice(
    memory: &mut Memory,
    global: &MemRefVal,
    range: ShardRange,
    contents: Buffer,
) -> ShardSlice {
    let mut shape = global.shape.clone();
    if let Some(first) = shape.first_mut() {
        *first = range.mapped_len() as i64;
    }
    let memref = MemRefVal {
        buffer: memory.alloc(contents, global.space),
        shape,
        space: global.space,
    };
    ShardSlice { memref, range }
}

/// `b[start .. start+len]` as a fresh buffer of the same type. Exported for
/// the cluster layer, whose workers slice row blocks out of device mirrors
/// during a row exchange.
pub fn slice_of(b: &Buffer, start: usize, len: usize) -> Result<Buffer, InterpError> {
    let end = start + len;
    if end > b.len() {
        return Err(InterpError::new(format!(
            "shard slice {start}..{end} out of bounds for buffer of {} elements",
            b.len()
        )));
    }
    Ok(match b {
        Buffer::F32(v) => Buffer::F32(v[start..end].to_vec()),
        Buffer::F64(v) => Buffer::F64(v[start..end].to_vec()),
        Buffer::I32(v) => Buffer::I32(v[start..end].to_vec()),
        Buffer::I64(v) => Buffer::I64(v[start..end].to_vec()),
        Buffer::I1(v) => Buffer::I1(v[start..end].to_vec()),
    })
}

/// Copy `len` elements `src[from ..]` → `dst[at ..]`; types and bounds must
/// match. Exported for the cluster layer: row exchanges write blocks into
/// shard mirrors with exactly this dispatch.
pub fn copy_elems(
    dst: &mut Buffer,
    at: usize,
    src: &Buffer,
    from: usize,
    len: usize,
) -> Result<(), InterpError> {
    if at + len > dst.len() || from + len > src.len() || dst.type_name() != src.type_name() {
        return Err(InterpError::new(format!(
            "shard copy mismatch: {len} elements of {}[{}] at {from} into {}[{}] at {at}",
            src.type_name(),
            src.len(),
            dst.type_name(),
            dst.len()
        )));
    }
    match (dst, src) {
        (Buffer::F32(d), Buffer::F32(s)) => d[at..at + len].copy_from_slice(&s[from..from + len]),
        (Buffer::F64(d), Buffer::F64(s)) => d[at..at + len].copy_from_slice(&s[from..from + len]),
        (Buffer::I32(d), Buffer::I32(s)) => d[at..at + len].copy_from_slice(&s[from..from + len]),
        (Buffer::I64(d), Buffer::I64(s)) => d[at..at + len].copy_from_slice(&s[from..from + len]),
        (Buffer::I1(d), Buffer::I1(s)) => d[at..at + len].copy_from_slice(&s[from..from + len]),
        _ => unreachable!("type equality checked above"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOp;

    fn global_f32(memory: &mut Memory, data: &[f32]) -> MemRefVal {
        let buffer = memory.alloc(Buffer::F32(data.to_vec()), 0);
        MemRefVal {
            buffer,
            shape: vec![data.len() as i64],
            space: 0,
        }
    }

    #[test]
    fn split_scatter_gather_roundtrip_with_halo() {
        let mut memory = Memory::new();
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let g = global_f32(&mut memory, &data);
        let mut env = ShardedEnvironment::new(3);
        env.map(&mut memory, "x", &g, Partition::Split { halo: 1 })
            .unwrap();

        let a = env.array("x").unwrap();
        assert_eq!(a.slices.len(), 3);
        // Middle shard maps rows 3..8 (owned 4..7 plus one halo row each
        // side) and its sub-buffer holds exactly those values.
        assert_eq!(env.shard_extent(1, "x"), Some(5));
        let m = env.shard_value(1, "x").unwrap();
        let m = m.as_memref().unwrap().clone();
        assert_eq!(
            memory.get(m.buffer),
            &Buffer::F32(vec![3.0, 4.0, 5.0, 6.0, 7.0])
        );

        // Mutate every slice (including its halo rows), then gather: only
        // owned rows land in the global array.
        for slice in env.array("x").unwrap().slices.clone() {
            if let Buffer::F32(v) = memory.get_mut(slice.memref.buffer) {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = 100.0 * (slice.range.mapped_start() + i) as f32;
                }
            }
        }
        env.gather(&mut memory, "x").unwrap();
        let expect: Vec<f32> = (0..10).map(|i| 100.0 * i as f32).collect();
        assert_eq!(memory.get(g.buffer), &Buffer::F32(expect));
    }

    #[test]
    fn weighted_environment_scatters_proportionally_and_gathers_exactly() {
        let mut memory = Memory::new();
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let g = global_f32(&mut memory, &data);
        // A 2x-faster shard 0 owns half the rows.
        let mut env = ShardedEnvironment::weighted(vec![2.0, 1.0, 1.0]);
        env.map(&mut memory, "x", &g, Partition::Split { halo: 0 })
            .unwrap();
        assert_eq!(env.shard_extent(0, "x"), Some(50));
        assert_eq!(env.shard_extent(1, "x"), Some(25));
        assert_eq!(env.shard_extent(2, "x"), Some(25));
        // Mutate every slice, then gather: the weighted cover is exact.
        for slice in env.array("x").unwrap().slices.clone() {
            if let Buffer::F32(v) = memory.get_mut(slice.memref.buffer) {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = 10.0 * (slice.range.start + i) as f32;
                }
            }
        }
        env.gather(&mut memory, "x").unwrap();
        let expect: Vec<f32> = (0..100).map(|i| 10.0 * i as f32).collect();
        assert_eq!(memory.get(g.buffer), &Buffer::F32(expect));
    }

    #[test]
    fn replicated_maps_full_copies_and_rejects_gather() {
        let mut memory = Memory::new();
        let g = global_f32(&mut memory, &[1.0, 2.0, 3.0]);
        let mut env = ShardedEnvironment::new(2);
        env.map(&mut memory, "c", &g, Partition::Replicated)
            .unwrap();
        for shard in 0..2 {
            assert_eq!(env.shard_extent(shard, "c"), Some(3));
            let m = env.shard_value(shard, "c").unwrap();
            let m = m.as_memref().unwrap().clone();
            assert_eq!(memory.get(m.buffer), &Buffer::F32(vec![1.0, 2.0, 3.0]));
        }
        assert!(env.gather(&mut memory, "c").is_err());
    }

    #[test]
    fn reduced_combines_initial_plus_partials_once() {
        let mut memory = Memory::new();
        let g = global_f32(&mut memory, &[10.0]);
        let mut env = ShardedEnvironment::new(3);
        env.map(&mut memory, "s", &g, Partition::Reduced(ReduceOp::Sum))
            .unwrap();
        // Shard 0 holds the initial contents; others the identity.
        let vals: Vec<f32> = (0..3)
            .map(|shard| {
                let m = env.shard_value(shard, "s").unwrap();
                let m = m.as_memref().unwrap().clone();
                match memory.get(m.buffer) {
                    Buffer::F32(v) => v[0],
                    _ => unreachable!(),
                }
            })
            .collect();
        assert_eq!(vals, vec![10.0, 0.0, 0.0]);
        // Each shard adds a partial; the gather folds them all.
        for (shard, add) in [(0usize, 1.0f32), (1, 2.0), (2, 4.0)] {
            let m = env.shard_value(shard, "s").unwrap();
            let m = m.as_memref().unwrap().clone();
            if let Buffer::F32(v) = memory.get_mut(m.buffer) {
                v[0] += add;
            }
        }
        env.gather(&mut memory, "s").unwrap();
        assert_eq!(memory.get(g.buffer), &Buffer::F32(vec![17.0]));
    }

    #[test]
    fn shard_values_resolve_mapped_names_on_existing_shards_only() {
        let mut memory = Memory::new();
        let g = global_f32(&mut memory, &[1.0, 2.0]);
        let mut env = ShardedEnvironment::new(2);
        env.map(&mut memory, "x", &g, Partition::Split { halo: 0 })
            .unwrap();
        assert!(env.shard_value(0, "x").is_some());
        assert!(env.shard_value(0, "ghost").is_none());
        assert!(env.shard_value(5, "x").is_none(), "no such shard");
    }

    #[test]
    fn split_requires_enough_rows_and_unique_names() {
        let mut memory = Memory::new();
        let g = global_f32(&mut memory, &[1.0, 2.0]);
        let mut env = ShardedEnvironment::new(4);
        assert!(env
            .map(&mut memory, "x", &g, Partition::Split { halo: 0 })
            .is_err());
        let mut env = ShardedEnvironment::new(2);
        env.map(&mut memory, "x", &g, Partition::Split { halo: 0 })
            .unwrap();
        assert!(env
            .map(&mut memory, "x", &g, Partition::Replicated)
            .is_err());
    }
}
